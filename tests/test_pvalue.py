"""Chi-square p-values without scipy.stats.

``linalg.chi2_sf`` must reproduce ``scipy.stats.chi2.sf`` bit for bit, and
no command path may load ``scipy.stats``: importing it roughly doubles the
start-up time of every CLI process.
"""

import math
import os
import subprocess
import sys

import numpy as np
from scipy.stats import chi2

from cointegra.linalg import chi2_sf

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
CONFIG = os.path.join(ROOT, "data", "sixstate", "config.json")


def test_bitwise_equal_to_scipy_stats():
    grid = np.concatenate([[0.0, 1e-300], np.linspace(1e-3, 200.0, 400), [1e6]])
    mismatches = [
        (dof, x)
        for dof in range(1, 51)
        for x in grid
        if chi2_sf(float(x), dof) != float(chi2.sf(x, dof))
    ]
    assert mismatches == []


def test_returns_python_float():
    assert type(chi2_sf(3.0, 2)) is float


def test_negative_statistic_is_one():
    assert chi2_sf(-1.0, 3) == 1.0
    assert float(chi2.sf(-1.0, 3)) == 1.0


def test_nan_stays_nan():
    assert math.isnan(chi2_sf(float("nan"), 3))


def test_cli_run_never_imports_scipy_stats(tmp_path):
    # A fresh interpreter: this test process has scipy.stats loaded already.
    script = (
        "import sys\n"
        "import cointegra.cli\n"
        "code = cointegra.cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, 'scipy.stats' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    child = subprocess.run(
        [sys.executable, "-c", script, CONFIG, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "0 False"
