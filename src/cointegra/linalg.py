"""Dense matrix kernel: multivariate OLS, Cholesky, generalized symmetric eigen,
the LAPACK kernels under them, the rank rule every regression shares, and
the chi-square upper-tail p-value shared by the test statistics.

All routines are pure functions.

numpy is the one runtime dependency: no module of the package imports
scipy, and this is the only one that imports ctypes. ``_TRTRS`` and
``_GELSY`` come from one of two providers, named by ``LAPACK``, which meet
one contract: ``trtrs(a, b, lower, trans) -> (x, info)`` and ``gelsy(a, b)
-> (x, R)``, R a copy of ``a`` holding the triangle of its QR.

- ``_numpy_lapack`` binds ``dtrtrs`` and ``dgelsy`` with ctypes in the
  OpenBLAS numpy has loaded for ``@``
  (``<site-packages>/numpy.libs/libscipy_openblas64_-*``, 64-bit integers).
  At a few dozen columns the ``scipy.linalg`` wrappers cost about as much
  as the arithmetic, so the bindings call the routines directly, passing
  ``ndarray.ctypes.data``, with the workspace query, arguments and memory
  layouts ``scipy.linalg`` uses: each result is bitwise
  ``scipy.linalg.solve_triangular``'s or ``lstsq(lapack_driver="gelsy")``'s.
  gelsy factors its copy of the design by column-pivoted QR (``dgeqp3``, the
  greedy column order of Businger & Golub 1965).
- Where that library or a routine is missing (a conda or distro numpy on
  another BLAS, an older wheel), ``numpy.linalg`` stands in: least squares
  is ``qr`` followed by ``solve`` with R, or the minimum-norm ``lstsq`` at
  ``rcond=eps`` where R is rank-deficient, and a triangular system is a
  zero check on the diagonal and ``solve`` on the triangle. The 12 report
  CSVs are the same bytes on both providers; ``cointegra fit`` stdout may
  differ in the rounding noise of β's normalized identity block.

``lstsq`` and ``ols`` share the one ``gelsy`` call, and ``ols`` applies
``rank_deficient`` to the diagonal of its R; the lag-selection, ADF, LM and
Johansen checks apply the same rule to their own triangles. ``qr_r`` is
``numpy.linalg.qr(mode="r")`` on one matrix or a stack. Every kernel
rejects a NaN or an infinity with ``ValueError``.

Importing this module leaves numpy's OpenBLAS pool at one thread for the
whole process: at a few dozen columns a second thread costs more in
hand-off than it saves (``long-panel`` runs about 13% faster). Where
cointegra is imported before numpy, ``OPENBLAS_NUM_THREADS`` is 1 while
the library loads and is then restored, so the pool never starts a spare
thread, which cost a fresh process 68 ms (2 vCPU). Where numpy came first,
the pool's setter pins it after the import. Where the library or its
setter is not found, nothing is set.

The chi-square p-values of the LM, Jarque-Bera and LR tests are upper
tails at integer dof (1, 2, 5, 10 and 25). ``chi2_sf`` sums them in closed
form with ``math`` alone; importing ``scipy.stats`` would roughly double
the start-up time of every CLI process.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib.util
import math
import os
import sys

from .errors import NotPositiveDefinite, RankDeficient

# Relative pivot threshold below which a design matrix is declared singular.
RANK_TOL = 1e-10

# find_spec locates the package without running its ``__init__``.
_NUMPY_DIR = importlib.util.find_spec("numpy").submodule_search_locations[0]


def _library() -> str | None:
    """Path of the OpenBLAS numpy ships, in its sibling ``numpy.libs``; None
    if not found."""
    found = glob.glob(os.path.join(_NUMPY_DIR + ".libs", "libscipy_openblas64_-*"))
    return found[0] if found else None


@contextlib.contextmanager
def _loading_with_one_thread():
    """Hold ``OPENBLAS_NUM_THREADS=1`` while the block imports numpy, which
    loads its OpenBLAS, and then restore the variable as it was (unset stays
    unset). The library reads it once, as it loads, and starts its pool with
    that many threads. Nothing is set where numpy is imported already, as
    its library has read the variable then, or where the library is not
    found, as the pin skips it too."""
    if "numpy" in sys.modules or _library() is None:
        yield
        return
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved


with _loading_with_one_thread():
    import numpy as np


def _openblas(verb: str, *args: int) -> int | None:
    """Call ``scipy_openblas_<verb>_num_threads64_`` (``int get()``, ``void
    set(int)``) of numpy's OpenBLAS; None where library or symbol is missing."""
    path = _library()
    symbol = f"scipy_openblas_{verb}_num_threads64_"
    func = getattr(ctypes.CDLL(path), symbol, None) if path else None
    if func is None:
        return None
    func.argtypes, func.restype = ([ctypes.c_int], None) if args else ([], ctypes.c_int)
    return func(*args)


def blas_threads() -> dict[str, int | None]:
    """Threads of numpy's OpenBLAS pool; None where its library or setter
    was not found."""
    return {"numpy": _openblas("get")}


# gelsy's rank cutoff, scipy's default for lstsq.
_EPS = np.finfo(np.float64).eps
# One call's integer arguments (M, N, LDA, LWORK, INFO, ...) sit in one
# int64 array, passed by address like every other argument.
_INTS = ctypes.c_int64 * 8
_P = ctypes.c_void_p
# Pointers, the character arguments as one-byte strings, and gfortran's
# hidden lengths of those.
_SIGNATURES = {
    "dtrtrs": [ctypes.c_char_p] * 3 + [_P] * 7 + [ctypes.c_size_t] * 3,
    "dgelsy": [_P] * 13,
}


def _numpy_lapack() -> tuple[str, tuple] | None:
    """The library's file name and build string, and ``trtrs`` and ``gelsy``
    calling ``dtrtrs`` and ``dgelsy`` on the OpenBLAS numpy has loaded; None
    where the library or a symbol is missing.

    Each copies the arrays LAPACK overwrites into fresh Fortran-ordered
    ones and reads the others in place, made Fortran-contiguous. gelsy's
    workspace query depends only on its integer arguments, so it is asked
    once per shape.
    """
    path = _library()
    if path is None:
        return None
    lib = ctypes.CDLL(path)  # numpy loaded it already: no second copy
    routines = {name: getattr(lib, f"scipy_{name}_64_", None) for name in _SIGNATURES}
    config = getattr(lib, "scipy_openblas_get_config64_", None)
    if config is None or None in routines.values():
        return None
    for name, routine in routines.items():
        routine.argtypes, routine.restype = _SIGNATURES[name], None
    config.argtypes, config.restype = [], ctypes.c_char_p
    trtrs_, gelsy_ = routines.values()

    def trtrs(a, b, lower, trans):
        a = np.asfortranarray(a, dtype=np.float64)
        x = np.array(b, dtype=np.float64, order="F")
        lda, n = a.shape
        shape = x.shape
        ints = _INTS()
        ints[:4] = n, shape[1] if len(shape) == 2 else 1, lda, shape[0]  # INFO at 4
        i = ctypes.addressof(ints)
        uplo, op = b"L" if lower else b"U", b"T" if trans else b"N"
        # UPLO TRANS DIAG N NRHS A LDA B LDB INFO, then the three lengths
        trtrs_(uplo, op, b"N", i, i + 8, a.ctypes.data, i + 16, x.ctypes.data, i + 24, i + 32, 1, 1, 1)
        return x, ints[4]

    @functools.lru_cache(maxsize=256)
    def workspace(m, n, nrhs):
        ints = _INTS()
        ints[:5] = m, n, nrhs, -1, max(m, n)  # LWORK, LDB; INFO, WORK, RANK follow
        i = ctypes.addressof(ints)
        m_, n_, nrhs_, lwork, ldb, info, work, rank = (i + 8 * j for j in range(8))
        # A query reads no array and no RCOND: those point at ``ints``; LDA = M.
        # M N NRHS A LDA B LDB JPVT RCOND RANK WORK LWORK INFO
        gelsy_(m_, n_, nrhs_, i, m_, i, ldb, i, i, rank, work, lwork, info)
        if ints[5] != 0:
            raise ValueError(f"gelsy workspace query failed: {ints[5]}")
        return int(ctypes.c_double.from_address(work).value)

    def gelsy(a, b):
        m, n = a.shape
        v = np.array(a, dtype=np.float64, order="F")
        x = np.array(b, dtype=np.float64, order="F")
        shape = x.shape
        nrhs = shape[1] if len(shape) == 2 else 1
        lwork = workspace(m, n, nrhs)
        jpvt = np.zeros(n, dtype=np.int64)  # every column free to pivot
        work = np.empty(1 + lwork)  # RCOND, then work
        work[0] = _EPS
        w = work.ctypes.data
        ints = _INTS()
        ints[:5] = m, n, nrhs, shape[0], lwork  # INFO at 5, RANK at 6
        i = ctypes.addressof(ints)
        # M N NRHS A LDA(=M) B LDB JPVT RCOND RANK WORK LWORK INFO
        gelsy_(i, i + 8, i + 16, v.ctypes.data, i, x.ctypes.data, i + 24, jpvt.ctypes.data,
               w, i + 48, w + 8, i + 32, i + 40)
        if ints[5] < 0:
            raise ValueError(f"illegal value in argument {-ints[5]} of gelsy")
        return x[:n], v

    build = " ".join(config().decode().split())
    return f"{os.path.basename(path)}: {build}", (trtrs, gelsy)


def _numpy_trtrs(a, b, lower, trans):
    """``numpy.linalg``'s triangular solve; ``info`` is 1 + the index of the
    first zero on the diagonal, as dtrtrs's is, and 0 otherwise."""
    tri = np.tril(a) if lower else np.triu(a)
    zeros = np.flatnonzero(np.diagonal(tri) == 0.0)
    if zeros.size:
        return None, int(zeros[0]) + 1
    return np.linalg.solve(tri.T if trans else tri, b), 0


def _numpy_gelsy(a, b):
    """``numpy.linalg``'s least squares, and R of the unpivoted QR of ``a``."""
    q, r = np.linalg.qr(a)
    if rank_deficient(np.diagonal(r)):
        return np.linalg.lstsq(a, b, rcond=_EPS)[0], r
    return np.linalg.solve(r, q.T @ b), r


LAPACK, (_TRTRS, _GELSY) = _numpy_lapack() or ("numpy.linalg", (_numpy_trtrs, _numpy_gelsy))
_openblas("set", 1)


def _finite(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def rank_deficient(diag) -> np.ndarray:
    """Whether a triangular factor with diagonal ``diag`` is numerically
    singular: ``min |diag| <= RANK_TOL · max |diag|``, along the last axis,
    so one bool per matrix of a stack. At most, not below: an all-zero
    diagonal counts. On the R of a column-pivoted QR, whose diagonal falls
    in magnitude, it compares the last pivot with the first."""
    d = np.abs(diag)
    return d.min(axis=-1) <= RANK_TOL * d.max(axis=-1)


def qr_r(a) -> np.ndarray:
    """R of the unpivoted QR of ``a`` or of each matrix in a stack ``a`` of
    shape (..., M, N), with shape (..., min(M, N), N);
    ``numpy.linalg.qr(a, mode="r")``. Its rows are, bitwise, the top
    min(M, N) rows of ``scipy.linalg.qr(a, mode="r")[0]``, whose other rows
    are zero."""
    return np.linalg.qr(_finite(a), mode="r")


def solve_triangular(a, b, lower: bool = False) -> np.ndarray:
    """Solve ``a @ x = b`` for triangular ``a``, reading only its ``lower``
    or upper triangle; on numpy's OpenBLAS, the result of
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
        x, info = _TRTRS(a, b, lower, False)
    else:
        x, info = _TRTRS(a.T, b, not lower, True)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of trtrs")
    return x


def _gelsy(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The least-squares solution of ``a @ x = b``, and a copy of ``a``
    holding the R its QR factors ``a`` with: gelsy's, whose R is
    column-pivoted, or ``numpy.linalg``'s. Where gelsy finds a rank below
    N, ``dtzrzf`` rewrites only the rows above that rank, so the trailing
    diagonal is still the QR's."""
    a = _finite(a)
    b = _finite(b)
    m, n = a.shape
    if m < n:
        raise ValueError(f"need at least as many rows as columns, got {m}x{n}")
    return _GELSY(a, b)


def lstsq(a, b) -> np.ndarray:
    """Least-squares solution of ``a @ x = b``; on numpy's OpenBLAS, by
    complete orthogonal factorization,
    ``scipy.linalg.lstsq(a, b, lapack_driver="gelsy")[0]``, and elsewhere
    by QR, the minimum-norm answer where R is rank-deficient. ``a`` needs
    at least as many rows as columns."""
    return _gelsy(a, b)[0]


def ols(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multivariate least squares: the coefficients B, shape (p, n), and the
    residuals E = Y - X·B, shape (T, n), for Y = X·B + E; (p,) and (T,) for
    a 1-d ``y``. B is ``lstsq``'s.

    Parameters
    ----------
    x : ndarray, shape (T, p)
    y : ndarray, shape (T, n) or (T,)

    Raises
    ------
    RankDeficient
        If ``rank_deficient`` finds the R that ``lstsq`` factors X with
        singular.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    squeeze = y.ndim == 1
    if squeeze:
        y = y[:, None]
    t, p = x.shape
    if t <= p:
        raise RankDeficient(f"need more rows than regressors, got {t}x{p}")
    coef, factored = _gelsy(x, y)
    if rank_deficient(np.diag(factored)):
        raise RankDeficient(f"design matrix rank-deficient ({p} columns)")
    resid = y - x @ coef
    if squeeze:
        return coef[:, 0], resid[:, 0]
    return coef, resid


def chi2_sf(x: float, dof: int) -> float:
    """Upper-tail probability P(X > x) for X ~ chi-square(dof), for an
    integer ``dof`` >= 1.

    With h = x/2, a finite sum (Abramowitz & Stegun 26.4.4 and 26.4.5): for
    even ``dof``, Σ_{j < dof/2} e^(-h)·h^j/j!; for odd ``dof``, erfc(√h) +
    Σ_{j=1}^{(dof-1)/2} e^(-h)·h^(j-½)/Γ(j+½). Each term is formed as the
    exponential of its logarithm, so none overflows where h^j would, and
    the positive terms are summed with ``math.fsum``. Over dof 1-200 it is
    within 1.3e-13 relative of mpmath's value wherever that is at least
    1e-300, and prints as ``scipy.special.chdtrc`` does to six digits. A
    negative statistic gives 1.0, an infinite one 0.0, and NaN stays NaN.
    """
    if x < 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    h = x / 2.0
    if h == 0.0:
        return 1.0
    log_h = math.log(h)
    half = dof % 2 / 2.0  # the powers of h are j + half for j < dof // 2
    terms = [
        math.exp((j + half) * log_h - h - math.lgamma(j + half + 1.0)) for j in range(dof // 2)
    ]
    if half:
        terms.append(math.erfc(math.sqrt(h)))
    return math.fsum(terms)


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
