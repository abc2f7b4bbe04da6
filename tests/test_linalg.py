import ast
import glob
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from cointegra import linalg
from cointegra.errors import NotPositiveDefinite, RankDeficient
from cointegra.linalg import (
    RANK_TOL,
    blas_threads,
    cholesky,
    generalized_sym_eig,
    lstsq,
    ols,
    qr_r,
    rank_deficient,
    solve_triangular,
)

# The design shapes the pipeline factorizes: lag selection and fits at
# T = 60-72 and k <= 4, and the long T = 312 panels at lag 12.
SHAPES = [(60, 11), (64, 21), (300, 61)]
LAYOUTS = ["C", "F", "transposed", "strided"]


def layout(a: np.ndarray, how: str) -> np.ndarray:
    """``a`` with the same values in another memory layout."""
    if how == "C":
        return np.ascontiguousarray(a)
    if how == "F":
        return np.asfortranarray(a)
    if how == "transposed":
        return np.ascontiguousarray(a.T).T
    wide = np.zeros((a.shape[0], 2 * a.shape[1]))
    wide[:, ::2] = a
    return wide[:, ::2]


class TestOls:
    def test_constant_regressor_recovers_mean(self):
        x = np.ones((4, 1))
        y = np.array([1.0, 2.0, 3.0, 4.0])
        coef, _resid = ols(x, y)
        assert coef == pytest.approx([2.5])

    def test_identity_design_is_exact(self):
        coef, resid = ols(np.vstack([np.eye(3), np.eye(3)]), np.vstack([np.eye(3), np.eye(3)]))
        assert np.allclose(coef, np.eye(3))
        assert np.allclose(resid, 0.0)

    def test_line_fit_matches_normal_equations(self):
        # Hand-solved: X'X = [[3,3],[3,5]], X'y = [9,13] -> b = (1, 2).
        x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        y = np.array([1.0, 3.0, 5.0])
        coef, _resid = ols(x, y)
        assert coef == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_covariance_uses_t_divisor(self):
        _coef, resid = ols(np.ones((4, 1)), np.array([1.0, 2.0, 3.0, 4.0]))
        # residuals (-1.5, -.5, .5, 1.5), sum of squares 5; callers divide by T=4
        assert resid == pytest.approx([-1.5, -0.5, 0.5, 1.5])
        assert resid @ resid / 4 == pytest.approx(1.25)

    def test_duplicate_column_raises(self):
        x = np.ones((5, 2))
        with pytest.raises(RankDeficient):
            ols(x, np.arange(5.0))

    def test_more_regressors_than_rows_raises(self):
        with pytest.raises(RankDeficient):
            ols(np.ones((2, 3)), np.arange(2.0))

    def test_reconstruction_property(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            t = int(rng.integers(10, 40))
            p = int(rng.integers(1, 5))
            n = int(rng.integers(1, 4))
            x = rng.standard_normal((t, p))
            y = rng.standard_normal((t, n))
            coef, resid = ols(x, y)
            scale = max(1.0, float(np.abs(y).max()))
            assert np.abs(x @ coef + resid - y).max() < 1e-10 * scale


class TestCholesky:
    def test_identity(self):
        assert np.allclose(cholesky(np.eye(3)), np.eye(3))

    def test_hand_factorization(self):
        l = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(l, [[2.0, 0.0], [1.0, 2.0]])

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_reconstruction_property(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            m = rng.standard_normal((n + 2, n))
            a = m.T @ m + 1e-6 * np.eye(n)
            l = cholesky(a)
            assert np.tril(l) == pytest.approx(l)
            assert np.abs(l @ l.T - a).max() <= 1e-9 * max(np.abs(a).max(), 1.0)
            assert np.diag(l).min() > 0


class TestGeneralizedSymEig:
    def test_identity_pair(self):
        w, _ = generalized_sym_eig(np.eye(2), np.eye(2))
        assert w == pytest.approx([1.0, 1.0])

    def test_diagonal_standard(self):
        w, v = generalized_sym_eig(np.diag([3.0, 1.0]), np.eye(2))
        assert w == pytest.approx([3.0, 1.0])
        assert np.abs(v) == pytest.approx(np.eye(2), abs=1e-12)

    def test_diagonal_ratio(self):
        w, _ = generalized_sym_eig(np.diag([2.0, 2.0]), np.diag([4.0, 1.0]))
        assert w == pytest.approx([2.0, 0.5])

    def test_non_pd_b_raises(self):
        with pytest.raises(NotPositiveDefinite):
            generalized_sym_eig(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_matches_standard_solver_when_b_is_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = rng.standard_normal((5, 5))
            a = (m + m.T) / 2
            w, _ = generalized_sym_eig(a, np.eye(5))
            expected = np.sort(np.linalg.eigvalsh(a))[::-1]
            assert w == pytest.approx(expected, abs=1e-9)

    def test_residual_orthonormality_and_trace_properties(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = 5
            ma = rng.standard_normal((n + 3, n))
            mb = rng.standard_normal((n + 3, n))
            a = ma.T @ ma
            b = mb.T @ mb + 1e-3 * np.eye(n)
            w, v = generalized_sym_eig(a, b)
            assert np.all(np.diff(w) <= 1e-12)
            for i in range(n):
                resid = a @ v[:, i] - w[i] * (b @ v[:, i])
                assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(a)
            assert np.abs(v.T @ b @ v - np.eye(n)).max() < 1e-8
            assert w.sum() == pytest.approx(np.trace(np.linalg.solve(b, a)), rel=1e-8)


class TestKernelParity:
    """Each direct LAPACK kernel returns exactly what its scipy.linalg
    counterpart returns, whatever the memory layout of its inputs."""

    @pytest.mark.parametrize("how", LAYOUTS)
    @pytest.mark.parametrize("shape", SHAPES + [(3, 5), (5, 5)])
    def test_pivoted_qr(self, shape, how):
        # ols's rank test reads the diagonal of the R of the column-pivoted
        # QR inside gelsy; at full rank that R is bitwise scipy's. gelsy
        # takes no matrix wider than tall.
        a = layout(np.random.default_rng(1).standard_normal(shape), how)
        b = np.ones((shape[0], 1))
        if shape[0] < shape[1]:
            with pytest.raises(ValueError, match="at least as many rows as columns"):
                linalg._gelsy(a, b)
            return
        _x, factored = linalg._gelsy(a, b)
        r0 = scipy.linalg.qr(a, mode="economic", pivoting=True)[1]
        assert np.array_equal(np.triu(factored[: shape[1]]), r0)

    @pytest.mark.parametrize("how", LAYOUTS)
    @pytest.mark.parametrize("shape", SHAPES + [(3, 3), (3, 5)])
    def test_qr_r(self, shape, how):
        # numpy's R has min(M, N) rows; scipy's has M, and the rest are zero.
        a = layout(np.random.default_rng(2).standard_normal(shape), how)
        r, r0 = qr_r(a), scipy.linalg.qr(a, mode="r")[0]
        top = min(shape)
        assert r.shape == (top, shape[1])
        assert np.array_equal(r, r0[:top]) and not r0[top:].any()

    @pytest.mark.parametrize("shape", [(5, 63, 6), (5, 64, 26), (3, 4, 6)])
    def test_qr_r_of_a_stack_is_each_matrix_alone(self, shape):
        stack = np.random.default_rng(8).standard_normal(shape)
        r = qr_r(stack)
        top = min(shape[1:])
        assert r.shape == (shape[0], top, shape[2])
        for a, ra in zip(stack, r):
            assert np.array_equal(ra, qr_r(a))
            assert np.array_equal(ra, scipy.linalg.qr(a, mode="r")[0][:top])

    def test_qr_r_on_every_design_of_a_run(self, tmp_path, monkeypatch):
        # The lag designs, ADF and LM stacks and beta blocks of the bundled
        # run, each against scipy's R of the same matrix.
        from cointegra import diagnostics, johansen, lagselect, pipeline, unitroot

        seen = []

        def recorded(a):
            seen.append(np.array(a))
            return qr_r(a)

        for module in (lagselect, johansen, unitroot, diagnostics):
            monkeypatch.setattr(module, "qr_r", recorded)
        config = os.path.join(ROOT, "data", "sixstate", "config.json")
        pipeline.run_pipeline(pipeline.load_config(config, out_dir=str(tmp_path)))
        matrices = [m for a in seen for m in (a if a.ndim == 3 else [a])]
        assert len(matrices) >= 16 * 3
        for a in matrices:
            r0 = scipy.linalg.qr(a, mode="r")[0]
            top = min(a.shape)
            assert np.array_equal(qr_r(a), r0[:top]) and not r0[top:].any()

    @pytest.mark.parametrize("rhs", ["1-D", "C", "F"])
    @pytest.mark.parametrize("how", LAYOUTS)
    @pytest.mark.parametrize("lower", [False, True])
    @pytest.mark.parametrize("n", [5, 11, 21, 61])
    def test_solve_triangular(self, n, lower, how, rhs):
        rng = np.random.default_rng(3)
        tri = np.tril if lower else np.triu
        a = layout(tri(rng.standard_normal((n, n))) + 4.0 * np.eye(n), how)
        b = rng.standard_normal(n) if rhs == "1-D" else layout(rng.standard_normal((n, 5)), rhs)
        x = solve_triangular(a, b, lower=lower)
        assert np.array_equal(x, scipy.linalg.solve_triangular(a, b, lower=lower))
        assert x.shape == b.shape

    @pytest.mark.parametrize("rhs", ["1-D", "C", "F"])
    @pytest.mark.parametrize("how", LAYOUTS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_lstsq(self, shape, how, rhs):
        rng = np.random.default_rng(4)
        a = layout(rng.standard_normal(shape), how)
        m = shape[0]
        b = rng.standard_normal(m) if rhs == "1-D" else layout(rng.standard_normal((m, 5)), rhs)
        x = lstsq(a, b)
        assert np.array_equal(x, scipy.linalg.lstsq(a, b, lapack_driver="gelsy")[0])
        assert x.shape == (shape[1],) + b.shape[1:]

    def test_lstsq_rank_deficient_design(self):
        # gelsy's complete orthogonal factorization at rcond = eps: a repeated
        # column still gets the same minimum-norm answer as scipy's.
        rng = np.random.default_rng(5)
        a = rng.standard_normal((40, 6))
        a[:, 5] = a[:, 2]
        b = rng.standard_normal((40, 3))
        assert np.array_equal(lstsq(a, b), scipy.linalg.lstsq(a, b, lapack_driver="gelsy")[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, bad):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((20, 4))
        a[3, 1] = bad
        b = rng.standard_normal((20, 2))
        tri = np.triu(rng.standard_normal((4, 4))) + np.eye(4)
        for call in (lambda: ols(a, b), lambda: qr_r(a), lambda: lstsq(a, b)):
            with pytest.raises(ValueError, match="infs or NaNs"):
                call()
        b[7, 0] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            lstsq(rng.standard_normal((20, 4)), b)
        tri_bad = tri.copy()
        tri_bad[1, 2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_triangular(tri_bad, np.ones(4))
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_triangular(tri, np.array([1.0, bad, 0.0, 2.0]))

    @pytest.mark.parametrize("lower", [False, True])
    @pytest.mark.parametrize("how", ["C", "F"])
    def test_singular_triangle_raises(self, lower, how):
        a = np.triu(np.ones((4, 4))) if not lower else np.tril(np.ones((4, 4)))
        a[2, 2] = 0.0
        a = layout(a, how)
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 2"):
            solve_triangular(a, np.ones(4), lower=lower)
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.solve_triangular(a, np.ones(4), lower=lower)

    def test_ols_matches_scipy_sequence(self):
        # ols's coefficients are the gelsy solution lstsq gives.
        rng = np.random.default_rng(7)
        for t, p in SHAPES:
            x = rng.standard_normal((t, p))
            y = rng.standard_normal((t, 5))
            coef = scipy.linalg.lstsq(x, y, lapack_driver="gelsy")[0]
            assert np.array_equal(ols(x, y)[0], coef)


class TestNumpyLinalgProvider:
    """The numpy.linalg routines that solve where numpy's OpenBLAS is not
    found: the same answers as scipy.linalg to rounding, the same errors."""

    @pytest.fixture(autouse=True)
    def numpy_linalg(self, monkeypatch):
        monkeypatch.setattr(linalg, "_TRTRS", linalg._numpy_trtrs)
        monkeypatch.setattr(linalg, "_GELSY", linalg._numpy_gelsy)

    @pytest.mark.parametrize("how", LAYOUTS)
    @pytest.mark.parametrize("lower", [False, True])
    def test_solve_triangular_reads_only_the_triangle(self, lower, how):
        rng = np.random.default_rng(3)
        full = rng.standard_normal((21, 21)) + 4.0 * np.eye(21)
        b = rng.standard_normal((21, 5))
        x = solve_triangular(layout(full, how), b, lower=lower)
        expected = scipy.linalg.solve_triangular(full, b, lower=lower)
        np.testing.assert_allclose(x, expected, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("lower", [False, True])
    @pytest.mark.parametrize("how", ["C", "F"])
    def test_singular_triangle_raises(self, lower, how):
        a = np.triu(np.ones((4, 4))) if not lower else np.tril(np.ones((4, 4)))
        a[2, 2] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="resolution failed at diagonal 2$"):
            solve_triangular(layout(a, how), np.ones(4), lower=lower)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_lstsq(self, shape):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal(shape), rng.standard_normal((shape[0], 5))
        expected = scipy.linalg.lstsq(a, b, lapack_driver="gelsy")[0]
        np.testing.assert_allclose(lstsq(a, b), expected, rtol=1e-10, atol=1e-13)
        assert lstsq(a, b[:, 0]).shape == (shape[1],)

    def test_lstsq_rank_deficient_design_is_minimum_norm(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((40, 6))
        a[:, 5] = a[:, 2]
        b = rng.standard_normal((40, 3))
        x = lstsq(a, b)
        expected = scipy.linalg.lstsq(a, b, lapack_driver="gelsy")[0]
        np.testing.assert_allclose(x, expected, rtol=1e-10)
        np.testing.assert_allclose(x[2], x[5], rtol=1e-10)

    def test_ols_rank_deficient_design_raises(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 6))
        x[:, 5] = x[:, 2]
        with pytest.raises(RankDeficient, match=r"^design matrix rank-deficient \(6 columns\)$"):
            ols(x, rng.standard_normal((40, 3)))


def test_rank_deficient_is_at_most_the_tolerance_along_the_last_axis():
    edge = np.nextafter(RANK_TOL, 1.0)
    assert rank_deficient(np.array([1.0, -0.5, -RANK_TOL]))
    assert not rank_deficient(np.array([-1.0, 0.5, edge]))
    assert rank_deficient(np.zeros(3))
    stack = np.array([[2.0, 2.0 * RANK_TOL], [2.0, 2.0 * edge], [0.0, 0.0]])
    assert rank_deficient(stack).tolist() == [True, False, True]


ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def run_fresh(script: str, argv: tuple[str, ...] = (), **environ: str) -> list[str]:
    """Stdout lines of ``script`` run with ``argv`` in a fresh interpreter
    on this checkout's ``src``, with ``environ`` added to the environment:
    this test process has scipy loaded already."""
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    child = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.splitlines()


# After cointegra.linalg and a later import of scipy's packages: linalg's
# kernels give bitwise scipy.linalg's results in the same process, the
# packages work, and no stub is left in sys.modules.
IDENTITY_CHECKS = """
import numpy as np
import scipy.linalg, scipy.special
rng = np.random.default_rng(9)
a, b = rng.standard_normal((64, 21)), rng.standard_normal((64, 5))
t = np.triu(rng.standard_normal((21, 21))) + 4.0 * np.eye(21)
ours = (linalg.ols(a, b)[0], linalg.lstsq(a, b), linalg.solve_triangular(t, b[:21]))
gelsy = scipy.linalg.lstsq(a, b, lapack_driver="gelsy")[0]
theirs = (gelsy, gelsy, scipy.linalg.solve_triangular(t, b[:21]))
print("lapack", [x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(ours, theirs)])
q, r = scipy.linalg.qr(np.eye(3))
print("qr", bool(np.allclose(q @ r, np.eye(3))))
print("stubs", [n for n in ("scipy", "scipy.linalg", "scipy.special") if sys.modules[n].__spec__ is None])
"""
IDENTITY_OK = ["lapack [True, True, True]", "qr True", "stubs []"]

# Makes this child's OpenBLAS lookup see only the empty directory
# ``sys.argv[1]``, as with a numpy built on another BLAS: linalg then solves
# with numpy.linalg.
NO_LIBRARY = """
import glob, os, sys
real_glob = glob.glob
glob.glob = lambda p: real_glob(os.path.join(sys.argv[1], os.path.basename(p)))
"""


class TestExtensionLoading:
    """linalg imports no scipy module. Whatever scipy imports later must
    work, and on numpy's OpenBLAS scipy.linalg must agree with linalg's
    kernels bit for bit."""

    def test_scipy_packages_imported_after_reuse_the_extensions(self):
        out = run_fresh(
            "import sys\n"
            "from cointegra import linalg\n"
            "print('no scipy', [n for n in sys.modules if n.partition('.')[0] == 'scipy'])\n"
            + IDENTITY_CHECKS
        )
        assert out == ["no scipy []"] + IDENTITY_OK

    def test_scipy_packages_imported_before_are_left_in_place(self):
        out = run_fresh(
            "import sys\n"
            "import scipy.linalg, scipy.special\n"
            "before = sys.modules['scipy.linalg'], sys.modules['scipy.special']\n"
            "from cointegra import linalg\n"
            "after = sys.modules['scipy.linalg'], sys.modules['scipy.special']\n"
            "print('kept', all(a is b for a, b in zip(before, after)))\n"
            + IDENTITY_CHECKS
        )
        assert out == ["kept True"] + IDENTITY_OK


def require_openblas() -> None:
    missing = [pool for pool, threads in blas_threads().items() if threads is None]
    if missing:
        pytest.skip(f"no scipy-openblas library found for the {' and '.join(missing)} pool")


class TestBlasPin:
    """Importing linalg leaves numpy's OpenBLAS pool, which also runs
    LAPACK, at one thread; where numpy's library is not found, numpy.linalg
    solves and the pool is left alone.

    Where cointegra imports numpy first, the pool starts with one thread:
    ``OPENBLAS_NUM_THREADS`` is 1 only while the library loads and is then
    restored, so no spare OpenBLAS thread is ever started. One would cost
    each fresh process about 70 ms of import time (2 vCPU). A program that
    imported numpy before cointegra keeps the threads it started, and the
    pin after the import sets its pool to one."""

    @pytest.mark.parametrize("environ", [None, "3"], ids=["unset", "3"])
    def test_pool_starts_with_one_thread_and_the_environment_stays(self, environ, monkeypatch):
        require_openblas()
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        out = run_fresh(
            "import os\n"
            "import cointegra\n"
            "from cointegra.linalg import blas_threads\n"
            "print(repr(os.environ.get('OPENBLAS_NUM_THREADS')))\n"
            "print(blas_threads())\n"
            "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None)\n",
            **({} if environ is None else {"OPENBLAS_NUM_THREADS": environ}),
        )
        assert out[:2] == [repr(environ), "{'numpy': 1}"]
        if out[2] == "None":
            pytest.skip("no /proc/self/task to count the threads in")
        assert out[2] == "1"

    def test_numpy_imported_first_is_still_pinned(self):
        require_openblas()
        out = run_fresh(
            "import numpy\nimport cointegra\nfrom cointegra.linalg import blas_threads\nprint(blas_threads())",
            OPENBLAS_NUM_THREADS="2",
        )
        assert out == ["{'numpy': 1}"]

    def test_both_pools_read_one_thread_over_the_environment(self):
        require_openblas()
        out = run_fresh(
            "from cointegra.linalg import blas_threads\nprint(blas_threads())",
            OPENBLAS_NUM_THREADS="2",
        )
        assert out == ["{'numpy': 1}"]

    def test_no_library_found_leaves_the_pools_and_the_results_alone(self, tmp_path):
        require_openblas()
        # This child's library lookup sees only an empty directory.
        fallback = run_fresh(
            NO_LIBRARY
            + "from cointegra import linalg\n"
            "bound = (linalg._TRTRS, linalg._GELSY)\n"
            "print(linalg.LAPACK, bound == (linalg._numpy_trtrs, linalg._numpy_gelsy))\n"
            "print(linalg.blas_threads())\n"
            "linalg._LIBRARY = real_glob(linalg._NUMPY_DIR + '.libs/libscipy_openblas64_-*')[0]\n"
            "print('pools', linalg.blas_threads())\n",
            argv=(str(tmp_path),),
            OPENBLAS_NUM_THREADS="2",
        )
        assert fallback[0] == "numpy.linalg True"
        assert fallback[1] == "{'numpy': None}"
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        if cpus >= 2:
            assert fallback[2] == "pools {'numpy': 2}"


def test_only_linalg_imports_scipy_or_ctypes():
    """linalg is the one module that reaches native libraries directly."""
    importers = set()
    for path in glob.glob(os.path.join(ROOT, "src", "cointegra", "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] in ("scipy", "ctypes") for name in names):
                importers.add(os.path.basename(path))
    assert importers == {"linalg.py"}


def test_every_top_level_name_is_used_or_public():
    """Each name in ``cointegra.__all__`` resolves, and each top-level def
    or class in the package is either in ``__all__`` or read somewhere in
    the package besides its own definition."""
    import cointegra

    assert [name for name in cointegra.__all__ if not hasattr(cointegra, name)] == []
    defined, read = {}, set()
    for path in glob.glob(os.path.join(ROOT, "src", "cointegra", "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = os.path.basename(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unused = {
        name: module
        for name, module in defined.items()
        if name not in read and name not in cointegra.__all__
    }
    assert unused == {}
