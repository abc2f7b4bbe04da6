"""Dense matrix kernel: multivariate OLS, Cholesky, generalized symmetric eigen,
the LAPACK kernels under them, and the chi-square upper-tail p-value shared
by the test statistics.

All routines are pure functions. Residual covariances use the
maximum-likelihood divisor T throughout; estimators that need a
degrees-of-freedom correction apply it at the call site.

This is the only module of the package that imports scipy or ctypes, and it
loads only two of scipy's compiled extensions: ``scipy.linalg._flapack`` for
LAPACK and ``scipy.special._ufuncs`` for ``chdtrc``. ``import scipy.linalg``
or ``import scipy.special`` would also run both packages' Python layers,
which nothing here calls and which cost about 190 ms of every fresh process
(2 vCPU, scipy 1.17). So ``_load_extensions`` binds each package that is not
imported yet to a bare stub with the real package directory as its
``__path__``, imports the two extensions under the stubs and removes the
stubs again. The extensions and their helpers stay in ``sys.modules``, so
a later ``import scipy.linalg`` or ``import scipy.special`` runs the real
package and reuses them: ``get_lapack_funcs(..., dtype=np.float64)`` and
``scipy.special.chdtrc`` return the very objects bound here. (The real
packages then lack the preloaded submodules as attributes, but
``from scipy.linalg import _flapack`` still works.) A failed stubbed import
falls back to the normal one, which is slower and gives the same objects.

Importing this module sets numpy's OpenBLAS pool (``libscipy_openblas64_``,
which runs ``@``) and scipy's (``libscipy_openblas``, LAPACK) to one thread
for the whole process, overriding ``OPENBLAS_NUM_THREADS``; a program that
imports cointegra inherits it. At a few dozen columns a second thread costs
more in hand-off than it saves: ``long-panel`` (``geqp3`` on 300×61 designs)
runs about 13% faster, and with the other vCPU busy a triangular solve took
4.4 ms, not 15 µs (2 vCPU). Where a library or setter is missing from
``<site-packages>/numpy.libs`` or ``scipy.libs``, nothing is set.

A run makes hundreds of LAPACK calls on matrices of a few dozen columns, and
at that size the ``scipy.linalg`` wrappers (batching, input validation,
dispatch) cost about as much as the arithmetic. So ``pivoted_qr``,
``solve_triangular`` and ``lstsq`` call the double-precision routines
directly, in the sequence ``scipy.linalg`` uses: the same workspace queries,
the same arguments and the same memory layouts. Each result is bitwise equal
to that of ``scipy.linalg.qr``, ``solve_triangular`` or
``lstsq(lapack_driver="gelsy")``. Like those, they reject a NaN or an
infinity with ``ValueError`` and check LAPACK's ``info`` after every call.
``qr_r`` is ``numpy.linalg.qr(mode="r")``, which factors one matrix or a
whole stack of them (the ADF and LM regressions of one model) in one call,
looping over the stack in C; it rejects a NaN or an infinity the same way.

Importing ``scipy.stats`` would roughly double the start-up time of every CLI
process, and ``chi2_sf`` gives the same values without it.
"""

from __future__ import annotations

import ctypes
import glob
import importlib
import os
import sys
import types
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import NotPositiveDefinite, RankDeficient

# Relative pivot threshold below which a design matrix is declared singular.
RANK_TOL = 1e-10

_EXTENSIONS = ("scipy.linalg._flapack", "scipy.special._ufuncs")
_POOLS = {"numpy": (np, "64_"), "scipy": (scipy, "")}


def _load_extensions() -> list[types.ModuleType]:
    """Import ``_EXTENSIONS`` without running the ``__init__`` of their
    packages, falling back to a normal import."""
    stubs = {}
    for name in ("scipy.linalg", "scipy.special"):
        if name not in sys.modules:
            stub = types.ModuleType(name)
            stub.__path__ = [os.path.join(scipy.__path__[0], name.rpartition(".")[2])]
            sys.modules[name] = stubs[name] = stub
    try:
        return [importlib.import_module(name) for name in _EXTENSIONS]
    except ImportError:
        pass
    finally:
        for name, stub in stubs.items():
            if sys.modules.get(name) is stub:
                del sys.modules[name]
    return [importlib.import_module(name) for name in _EXTENSIONS]


def _openblas(pool: str, verb: str, *args: int) -> int | None:
    """Call ``scipy_openblas_<verb>_num_threads`` (``int get()``, ``void set(int)``)
    of the OpenBLAS loaded for ``pool``; None where library or symbol is missing."""
    package, suffix = _POOLS[pool]
    found = glob.glob(os.path.join(package.__path__[0] + ".libs", f"libscipy_openblas{suffix}-*"))
    symbol = f"scipy_openblas_{verb}_num_threads{suffix}"
    func = getattr(ctypes.CDLL(found[0]), symbol, None) if found else None
    if func is None:
        return None
    func.argtypes, func.restype = ([ctypes.c_int], None) if args else ([], ctypes.c_int)
    return func(*args)


def blas_threads() -> dict[str, int | None]:
    """Threads of numpy's and scipy's OpenBLAS pools; None for a pool not found."""
    return {pool: _openblas(pool, "get") for pool in _POOLS}


_FLAPACK, _UFUNCS = _load_extensions()
for _pool in _POOLS:
    _openblas(_pool, "set", 1)
SCIPY_VERSION = scipy.__version__
_GEQP3, _ORGQR, _TRTRS, _GELSY, _GELSY_LWORK = (
    _FLAPACK.dgeqp3,
    _FLAPACK.dorgqr,
    _FLAPACK.dtrtrs,
    _FLAPACK.dgelsy,
    _FLAPACK.dgelsy_lwork,
)
# gelsy's rank cutoff, scipy's default for lstsq.
_EPS = np.finfo(np.float64).eps


def _finite(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def _call(routine, name: str, *args, **kwargs):
    """Run a LAPACK routine at the workspace size its own query returns and
    drop the trailing work and info outputs."""
    query = routine(*args, lwork=-1, **kwargs)
    out = routine(*args, lwork=int(query[-2][0]), **kwargs)
    if out[-1] < 0:
        raise ValueError(f"illegal value in argument {-out[-1]} of {name}")
    return out[:-2]


def pivoted_qr(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economic column-pivoted QR, ``a[:, piv] = q @ r``; the result of
    ``scipy.linalg.qr(a, mode="economic", pivoting=True)``."""
    a = _finite(a)
    m, n = a.shape
    qr, piv, tau = _call(_GEQP3, "geqp3", a)
    piv -= 1
    r = np.triu(qr) if m < n else np.triu(qr[:n, :])
    # R is a copy, so orgqr may overwrite the factor in place.
    (q,) = _call(_ORGQR, "orgqr", qr[:, :m] if m < n else qr, tau, overwrite_a=1)
    return q, r, piv


def qr_r(a) -> np.ndarray:
    """R of the unpivoted QR of ``a`` or of each matrix in a stack ``a`` of
    shape (..., M, N), with shape (..., min(M, N), N);
    ``numpy.linalg.qr(a, mode="r")``. Its rows are, bitwise, the top
    min(M, N) rows of ``scipy.linalg.qr(a, mode="r")[0]``, whose other rows
    are zero."""
    return np.linalg.qr(_finite(a), mode="r")


def solve_triangular(a, b, lower: bool = False) -> np.ndarray:
    """Solve ``a @ x = b`` for triangular ``a``; the result of
    ``scipy.linalg.solve_triangular(a, b, lower=lower)``.

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``a`` has a zero on its diagonal.
    """
    a = _finite(a)
    b = _finite(b)
    # trtrs reads Fortran order, so a C-ordered ``a`` is solved as a.T.
    if a.flags.f_contiguous:
        x, info = _TRTRS(a, b, lower=lower, trans=0)
    else:
        x, info = _TRTRS(a.T, b, lower=not lower, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of trtrs")
    return x


def lstsq(a, b) -> np.ndarray:
    """Least-squares solution of ``a @ x = b`` by complete orthogonal
    factorization; ``scipy.linalg.lstsq(a, b, lapack_driver="gelsy")[0]``.
    ``a`` needs at least as many rows as columns."""
    a = _finite(a)
    b = _finite(b)
    m, n = a.shape
    if m < n:
        raise ValueError(f"need at least as many rows as columns, got {m}x{n}")
    work, info = _GELSY_LWORK(m, n, b.shape[1] if b.ndim == 2 else 1, _EPS)
    if info != 0:
        raise ValueError(f"gelsy workspace query failed: {info}")
    jpvt = np.zeros((n, 1), dtype=np.int32)
    _v, x, _jpvt, _rank, info = _GELSY(a, b, jpvt, _EPS, int(work.real), False, False)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gelsy")
    return x[:n]


@dataclass
class OlsFit:
    """Least-squares result for Y = X·B + E.

    Attributes
    ----------
    coefficients : ndarray, shape (p, n)
    residuals : ndarray, shape (T, n)
    residual_covariance : ndarray, shape (n, n)
        E'E / T (maximum-likelihood divisor).
    """

    coefficients: np.ndarray
    residuals: np.ndarray
    residual_covariance: np.ndarray


def ols(x: np.ndarray, y: np.ndarray) -> OlsFit:
    """Multivariate least squares via pivoted QR.

    Parameters
    ----------
    x : ndarray, shape (T, p)
    y : ndarray, shape (T, n) or (T,)

    Raises
    ------
    RankDeficient
        If any pivot of the QR factorization falls below RANK_TOL times the
        largest pivot.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    squeeze = y.ndim == 1
    if squeeze:
        y = y[:, None]
    t, p = x.shape
    if t <= p:
        raise RankDeficient(f"need more rows than regressors, got {t}x{p}")
    q, r, piv = pivoted_qr(x)
    diag = np.abs(np.diag(r))
    if diag[0] == 0.0 or diag[-1] < RANK_TOL * diag[0]:
        raise RankDeficient(f"design matrix rank-deficient ({p} columns)")
    # X·P = Q·R, so B[piv] = R⁻¹·Q'·Y: solve from the factorization above.
    coef = np.empty((p, y.shape[1]))
    coef[piv] = solve_triangular(r, q.T @ y)
    resid = y - x @ coef
    cov = resid.T @ resid / t
    cov = (cov + cov.T) / 2.0
    if squeeze:
        coef = coef[:, 0]
        resid = resid[:, 0]
    return OlsFit(coefficients=coef, residuals=resid, residual_covariance=cov)


def chi2_sf(x: float, dof: int) -> float:
    """Upper-tail probability P(X > x) for X ~ chi-square(dof).

    Bitwise equal to ``scipy.stats.chi2.sf(x, dof)``, which evaluates the
    same ``chdtrc``. As there, a negative statistic gives 1.0 (``chdtrc``
    alone gives NaN) and NaN stays NaN.
    """
    if x < 0.0:
        return 1.0
    return float(_UFUNCS.chdtrc(dof, x))


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric PD matrix.

    Raises
    ------
    NotPositiveDefinite
        If ``a`` is asymmetric beyond 1e-9 relative tolerance or any pivot
        is non-positive.
    """
    a = np.asarray(a, dtype=float)
    scale = np.max(np.abs(a)) if a.size else 0.0
    if scale > 0 and np.max(np.abs(a - a.T)) > 1e-9 * scale:
        raise NotPositiveDefinite("matrix is not symmetric")
    try:
        return np.linalg.cholesky((a + a.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def generalized_sym_eig(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve A·v = λ·B·v for symmetric A and symmetric PD B.

    Reduces via B = L·L' to the standard symmetric problem on L⁻¹·A·L⁻ᵀ and
    back-transforms the eigenvectors by L⁻ᵀ.

    Returns
    -------
    eigenvalues : ndarray, shape (n,)
        Sorted descending.
    eigenvectors : ndarray, shape (n, n)
        Column i pairs with eigenvalue i; B-orthonormal (V'·B·V = I).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    l = cholesky(b)
    linv_a = solve_triangular(l, a, lower=True)
    c = solve_triangular(l, linv_a.T, lower=True)
    c = (c + c.T) / 2.0
    w, u = np.linalg.eigh(c)
    order = np.argsort(w)[::-1]
    w = w[order]
    u = u[:, order]
    v = solve_triangular(l.T, u, lower=False)
    return w, v
