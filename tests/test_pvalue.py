"""Chi-square p-values without scipy.stats, and scipy only behind linalg.

``linalg.chi2_sf`` must reproduce ``scipy.stats.chi2.sf`` bit for bit, and
no command path may load ``scipy.stats``: importing it roughly doubles the
start-up time of every CLI process. ``run`` runs none of scipy's Python code
either: it loads two compiled extensions and nothing else of scipy.
"""

import math
import os
import subprocess
import sys

import numpy as np
from scipy.special import chdtrc
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


def test_bitwise_equal_to_chdtrc_far_beyond_the_dofs_in_use():
    # The pipeline uses dof 1, 2, 5, 10 and 25; chi2_sf evaluates
    # gammaincc(dof / 2, x / 2), the function chdtrc evaluates.
    dof = np.arange(1, 201)[:, None]
    x = np.concatenate(
        [[0.0, 5e-324, 1e-300], np.logspace(-300, 300, 601), np.linspace(0.01, 500.0, 200), [np.inf]]
    )
    ours = np.frompyfunc(chi2_sf, 2, 1)(x, dof).astype(np.float64)
    for reference in (chdtrc(dof, x), chi2.sf(x, dof)):
        mismatches = np.argwhere(ours.view(np.int64) != reference.view(np.int64))
        assert [(int(dof[i, 0]), float(x[j])) for i, j in mismatches] == []


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


def test_cli_run_loads_no_scipy_package_layer(tmp_path):
    # linalg loads only two of scipy's compiled extensions: scipy's own
    # __init__ and the Python layers of scipy.linalg and scipy.special would
    # cost every fresh process about 0.3 s and 27 MB more (2 vCPU, scipy 1.17).
    # A later import of the real packages must still work and reuse them.
    script = (
        "import sys\n"
        "import cointegra.cli\n"
        "from cointegra import linalg\n"
        "code = cointegra.cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, sorted(n for n in sys.modules if n.partition('.')[0] == 'scipy'))\n"
        "import scipy, scipy.linalg, scipy.special, scipy.stats\n"
        "print(scipy.version.version == scipy.__version__ == linalg.SCIPY_VERSION)\n"
        "print(scipy.special.gammaincc is linalg._UFUNCS.gammaincc)\n"
        "print(all(linalg.chi2_sf(x, dof) == float(scipy.stats.chi2.sf(x, dof))\n"
        "          for dof in (1, 2, 5, 10, 25) for x in (0.0, 0.5, 3.0, 40.0, 1e3)))\n"
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
    assert child.stdout.splitlines()[-4:] == [
        "0 ['scipy.linalg._flapack', 'scipy.special._special_ufuncs']",
        "True",
        "True",
        "True",
    ]


def test_only_linalg_imports_scipy():
    # Every LAPACK call and p-value goes through linalg, which calls the
    # LAPACK routines directly; no other module may reach for scipy.
    import ast

    src = os.path.join(ROOT, "src", "cointegra")
    importers = set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                importers.add(name)
    assert importers == {"linalg.py"}
