"""Chi-square p-values without scipy, and no scipy import in the package.

``linalg.chi2_sf`` is a closed-form finite sum for integer dof; scipy serves
here only as a reference. It must print as ``scipy.special.chdtrc`` does,
to the six significant digits the reports use, and agree with mpmath's
regularized incomplete gamma to 1e-12 relative. No command path may load
``scipy.stats``: importing it roughly doubles the start-up time of every CLI
process. A ``run`` loads no scipy module at all.
"""

import importlib.util
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
from scipy.special import chdtrc
from scipy.stats import chi2

from cointegra.linalg import chi2_sf

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
CONFIG = os.path.join(ROOT, "data", "sixstate", "config.json")


def test_prints_as_chdtrc_far_beyond_the_dofs_in_use():
    # The pipeline uses dof 1, 2, 5, 10 and 25, and reports p-values as %.6g.
    dof = np.arange(1, 201)[:, None]
    x = np.concatenate(
        [[0.0, 5e-324, 1e-300], np.logspace(-300, 300, 601), np.linspace(0.01, 500.0, 200), [np.inf]]
    )
    ours = np.frompyfunc(chi2_sf, 2, 1)(x, dof).astype(np.float64)
    reference = chdtrc(dof, x)
    # Only the values that differ at all can print differently.
    mismatches = [
        (int(dof[i, 0]), float(x[j]))
        for i, j in np.argwhere(ours != reference)
        if f"{ours[i, j]:.6g}" != f"{reference[i, j]:.6g}"
    ]
    assert mismatches == []


def test_agrees_with_mpmath_up_to_the_underflow_edge():
    # Half the statistics uniform up to 1500, where the tail at dof 1
    # underflows, and half log-uniform from 1e-3, to cover small values.
    rng = np.random.default_rng(21)
    n = 16000
    dofs = rng.integers(1, 201, n).tolist()
    xs = np.concatenate(
        [rng.uniform(0.0, 1500.0, n // 2), np.exp(rng.uniform(math.log(1e-3), math.log(1500.0), n // 2))]
    ).tolist()
    far, not_small = [], []
    with mpmath.workdps(30):
        for dof, x in zip(dofs, xs):
            exact = float(mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2, mpmath.inf, regularized=True))
            ours = chi2_sf(x, dof)
            if exact >= 1e-300:
                if not math.isclose(ours, exact, rel_tol=1e-12):
                    far.append((dof, x, ours, exact))
            elif not ours < 1e-300:
                not_small.append((dof, x, ours))
    assert far == []
    assert not_small == []


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
    # On numpy's bundled OpenBLAS a run imports no scipy module and maps no
    # library from scipy's package or from scipy.libs: scipy's own
    # __init__, its extensions, scipy's OpenBLAS and OpenSSL's libcrypto
    # would each cost every fresh process time and memory. A later import
    # of scipy.stats must still work and agree with chi2_sf.
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    script = (
        "import os, sys\n"
        "import cointegra.cli\n"
        "from cointegra import linalg\n"
        "code = cointegra.cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, sorted(n for n in sys.modules if n.partition('.')[0] == 'scipy'))\n"
        "print('_hashlib' in sys.modules)\n"
        "if os.path.exists('/proc/self/maps'):\n"
        "    with open('/proc/self/maps') as fh:\n"
        "        paths = {line.split()[-1] for line in fh if len(line.split()) > 5}\n"
        "    names = {os.path.basename(p) for p in paths}\n"
        "    print(len([n for n in names if n.startswith('libscipy_openblas')]),\n"
        "          [n for n in names if 'libcrypto' in n],\n"
        "          sorted(p for p in paths if p.startswith((sys.argv[3] + os.sep, sys.argv[3] + '.libs'))))\n"
        "else:\n"
        "    print('no maps')\n"
        "import scipy.stats\n"
        "print(all(f'{linalg.chi2_sf(x, dof):.6g}' == f'{scipy.stats.chi2.sf(x, dof):.6g}'\n"
        "          for dof in (1, 2, 5, 10, 25) for x in (0.0, 0.5, 3.0, 40.0, 1e3)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    child = subprocess.run(
        [sys.executable, "-c", script, CONFIG, str(tmp_path / "out"), scipy_dir],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-4:] == [
        "0 []",
        "False",
        "1 [] []" if os.path.exists("/proc/self/maps") else "no maps",
        "True",
    ]


def test_no_module_imports_scipy():
    # numpy is the one runtime dependency: LAPACK comes from numpy's
    # OpenBLAS or numpy.linalg, and p-values from math.
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
    assert importers == set()
