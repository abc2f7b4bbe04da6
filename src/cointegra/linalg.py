"""Dense matrix kernel: multivariate OLS, Cholesky, generalized symmetric eigen,
the LAPACK kernels under them, and the chi-square upper-tail p-value shared
by the test statistics.

All routines are pure functions.

This is the only module of the package that imports scipy or ctypes. A
process that runs cointegra on numpy's bundled OpenBLAS loads that one
OpenBLAS and no scipy module: no scipy Python code or extension, no scipy
LAPACK wrapper, no scipy OpenBLAS or libgfortran. (With ``pipeline``'s
built-in SHA-256, no OpenSSL either.) ``_numpy_lapack`` binds ``dgeqp3``,
``dorgqr``, ``dtrtrs`` and ``dgelsy`` with ctypes in the OpenBLAS numpy
has loaded for ``@``
(``<site-packages>/numpy.libs/libscipy_openblas64_-*``, 64-bit integers),
each taking the arguments and giving the results of its
``scipy.linalg._flapack`` namesake; so the outputs depend on that library
alone. Where the library or a routine is missing (a numpy on another BLAS),
the bindings are ``_flapack``'s, loaded with scipy's OpenBLAS; that fallback
is the one place scipy is still loaded, and only then is ``SCIPY_VERSION``
set. Fresh-process peak RSS of ``cointegra run`` fell from 42.0 to 34.4 MB
when scipy's OpenBLAS and OpenSSL stopped loading, and by about 1.2 MB more
when ``chi2_sf`` stopped calling scipy's ``gammaincc`` (2 vCPU, numpy 2.4,
scipy 1.17).

``import scipy.linalg`` would also run scipy's and the package's
``__init__`` files, which nothing here calls. So on the fallback
``_load_flapack`` finds scipy's directory with ``importlib.util.find_spec``,
binds each of ``scipy`` and ``scipy.linalg`` that is not imported yet to a
bare stub with the real package directory as its ``__path__``, imports
``_flapack`` and ``scipy.version`` under the stubs, and removes the stubs
and ``scipy.version`` again. The extension stays in ``sys.modules``, so a
later ``import scipy.linalg`` runs the real package and reuses it. A failed
stubbed import falls back to importing ``scipy.linalg._flapack`` normally,
which is slower and gives the same routines.

Importing this module leaves the OpenBLAS pools it loaded (numpy's, and on
the fallback scipy's) at one thread for the whole process; a program that
imports cointegra inherits it. At a few dozen columns a second thread
costs more in hand-off than it saves: ``long-panel`` (``geqp3`` on 300×61
designs) runs about 13% faster, and with the other vCPU busy a triangular
solve took 4.4 ms, not 15 µs (2 vCPU). The package imports this module
first, so where cointegra is imported before numpy, each pool starts with
one thread: ``OPENBLAS_NUM_THREADS`` is 1 only while the library loads and
is then restored as it was. A pool started with two threads and pinned
afterwards keeps its spare thread, which cost a fresh process 68 ms of
``import numpy`` (0.168 against 0.100 s, 2 vCPU). A program that imported
numpy first still gets the pin: after the imports, each pool's setter sets
it to one thread, overriding ``OPENBLAS_NUM_THREADS``. Where a library is
not found in ``<site-packages>/numpy.libs`` or ``scipy.libs``, nothing is
set; where its setter is missing, there is no pin.

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

The chi-square p-values of the LM, Jarque-Bera and LR tests are
upper tails at integer dof (1, 2, 5, 10 and 25). ``chi2_sf`` sums them in
closed form with ``math`` alone; importing ``scipy.stats`` would roughly
double the start-up time of every CLI process.
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
import types

from .errors import NotPositiveDefinite, RankDeficient

# Relative pivot threshold below which a design matrix is declared singular.
RANK_TOL = 1e-10

# find_spec locates a package without running its ``__init__``.
_NUMPY_DIR, _SCIPY_DIR = (
    importlib.util.find_spec(name).submodule_search_locations[0] for name in ("numpy", "scipy")
)
# pool -> (package directory, whose sibling ``<dir>.libs`` holds its OpenBLAS; symbol suffix)
_LIBRARIES = {"numpy": (_NUMPY_DIR, "64_"), "scipy": (_SCIPY_DIR, "")}


def _library(pool: str) -> str | None:
    """Path of the OpenBLAS shipped with ``pool``'s package; None if not found."""
    directory, suffix = _LIBRARIES[pool]
    found = glob.glob(os.path.join(directory + ".libs", f"libscipy_openblas{suffix}-*"))
    return found[0] if found else None


@contextlib.contextmanager
def _loading_with_one_thread(pool: str, module: str):
    """Hold ``OPENBLAS_NUM_THREADS=1`` while the block imports ``module``,
    which loads ``pool``'s OpenBLAS, and then restore the variable as it was
    (unset stays unset). The library reads it once, as it loads, and starts
    its pool with that many threads. Nothing is set where ``module`` is
    imported already, as its library has read the variable then, or where
    the library is not found, as the pin skips that pool too."""
    if module in sys.modules or _library(pool) is None:
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


with _loading_with_one_thread("numpy", "numpy"):
    import numpy as np


def _load_flapack() -> tuple[types.ModuleType, str]:
    """``scipy.linalg._flapack`` and scipy's version, imported without
    running any scipy ``__init__``.

    ``scipy`` and ``scipy.linalg``, each where not imported yet, are bare
    stubs with the real package directory as ``__path__`` during the
    imports; the stubs and ``scipy.version`` are removed again after them.
    If the stubbed imports fail, ``_flapack`` is imported normally.
    """
    stubs = {}
    for name in ("scipy", "scipy.linalg"):
        if name not in sys.modules:
            stub = types.ModuleType(name)
            stub.__path__ = [os.path.join(_SCIPY_DIR, *name.split(".")[1:])]
            sys.modules[name] = stubs[name] = stub
    try:
        from scipy.version import version

        return importlib.import_module("scipy.linalg._flapack"), version
    except ImportError:
        pass
    finally:
        if "scipy" in stubs:
            # A real ``import scipy`` would find it loaded and never bind
            # it as the attribute ``scipy.version``.
            sys.modules.pop("scipy.version", None)
        for name, stub in stubs.items():
            if sys.modules.get(name) is stub:
                del sys.modules[name]
    import scipy

    return importlib.import_module("scipy.linalg._flapack"), scipy.__version__


def _openblas(pool: str, verb: str, *args: int) -> int | None:
    """Call ``scipy_openblas_<verb>_num_threads`` (``int get()``, ``void set(int)``)
    of the OpenBLAS loaded for ``pool``; None where library or symbol is missing."""
    path = _library(pool)
    symbol = f"scipy_openblas_{verb}_num_threads{_LIBRARIES[pool][1]}"
    func = getattr(ctypes.CDLL(path), symbol, None) if path else None
    if func is None:
        return None
    func.argtypes, func.restype = ([ctypes.c_int], None) if args else ([], ctypes.c_int)
    return func(*args)


def blas_threads() -> dict[str, int | None]:
    """Threads of each OpenBLAS pool this process loaded; None for a pool
    whose library or setter was not found."""
    return {pool: _openblas(pool, "get") for pool in _POOLS}


# One call's integer arguments (M, N, LDA, LWORK, INFO, ...) sit in one
# int64 array, passed by address like every other argument.
_INTS = ctypes.c_int64 * 8
_P = ctypes.c_void_p
# Pointers, the character arguments as one-byte strings, and gfortran's
# hidden lengths of those.
_SIGNATURES = {
    "dgeqp3": [_P] * 9,
    "dorgqr": [_P] * 9,
    "dtrtrs": [ctypes.c_char_p] * 3 + [_P] * 7 + [ctypes.c_size_t] * 3,
    "dgelsy": [_P] * 13,
}
# An ndarray's data pointer is the first field after the object header.
_DATA_OFFSET = object.__basicsize__
_pointer_at = _P.from_address


def _data(a: np.ndarray) -> int:
    """Address of ``a``'s first element; 0.2 µs, where ``a.ctypes.data``
    takes 1.6 (2 vCPU)."""
    return _pointer_at(id(a) + _DATA_OFFSET).value


def _numpy_lapack() -> tuple[str, tuple] | None:
    """The library's file name and build string, and ``dgeqp3``, ``dorgqr``,
    ``dtrtrs``, ``dgelsy`` and gelsy's workspace query on the OpenBLAS numpy
    has loaded, each called and answering as its ``scipy.linalg._flapack``
    namesake; None where the library or a symbol is missing, or where an
    ndarray's data pointer is not where ``_data`` reads it.

    Like f2py, each copies the arrays LAPACK overwrites into fresh
    Fortran-ordered ones and reads the others in place, made
    Fortran-contiguous. A workspace query's answer depends only on its
    integer arguments, so each is asked once per shape.
    """
    path = _library("numpy")
    if path is None:
        return None
    lib = ctypes.CDLL(path)  # numpy loaded it already: no second copy
    routines = {name: getattr(lib, f"scipy_{name}_64_", None) for name in _SIGNATURES}
    config = getattr(lib, "scipy_openblas_get_config64_", None)
    probe = np.empty(1)
    if config is None or None in routines.values() or _data(probe) != probe.ctypes.data:
        return None
    for name, routine in routines.items():
        routine.argtypes, routine.restype = _SIGNATURES[name], None
    config.argtypes, config.restype = [], ctypes.c_char_p
    geqp3_, orgqr_, trtrs_, gelsy_ = routines.values()

    @functools.lru_cache(maxsize=256)
    def query(name: str, m: int, n: int, k: int) -> tuple[tuple[float], int]:
        """``((work[0],), info)`` of the workspace query of ``name`` at M, N
        and orgqr's K or gelsy's NRHS."""
        ints = _INTS()
        ints[:5] = m, n, k, -1, max(m, n)  # LWORK, gelsy's LDB; INFO, WORK, RANK follow
        i = ctypes.addressof(ints)
        m_, n_, k_, lwork, ldb, info, work, rank = (i + 8 * j for j in range(8))
        # A query reads no array and no RCOND: those point at ``ints``; LDA = M.
        if name == "dgeqp3":  # M N A LDA JPVT TAU WORK LWORK INFO
            geqp3_(m_, n_, i, m_, i, i, work, lwork, info)
        elif name == "dorgqr":  # M N K A LDA TAU WORK LWORK INFO
            orgqr_(m_, n_, k_, i, m_, i, work, lwork, info)
        else:  # M N NRHS A LDA B LDB JPVT RCOND RANK WORK LWORK INFO
            gelsy_(m_, n_, k_, i, m_, i, ldb, i, i, rank, work, lwork, info)
        return (ctypes.c_double.from_address(work).value,), ints[5]

    def geqp3(a, lwork=-1):
        m, n = a.shape
        if lwork == -1:
            return query("dgeqp3", m, n, 0)
        ints = _INTS()
        ints[:3] = m, n, lwork  # INFO at 3
        i = ctypes.addressof(ints)
        k = m if m < n else n
        qr = np.array(a, dtype=np.float64, order="F")
        jpvt = np.zeros(n, dtype=np.int64)  # every column free
        work = np.empty(k + lwork)  # tau, then work
        w = _data(work)
        # M N A LDA(=M) JPVT TAU WORK LWORK INFO
        geqp3_(i, i + 8, _data(qr), i, _data(jpvt), w, w + 8 * k, i + 16, i + 24)
        return qr, jpvt.astype(np.int32), work[:k], work, ints[3]

    def orgqr(a, tau, lwork=-1, overwrite_a=0):
        m, n = a.shape
        k = tau.shape[0]
        if lwork == -1:
            return query("dorgqr", m, n, k)
        ints = _INTS()
        ints[:4] = m, n, k, lwork  # INFO at 4
        i = ctypes.addressof(ints)
        if overwrite_a and a.flags.writeable:
            a = np.asfortranarray(a, dtype=np.float64)  # in place where it can be
        else:
            a = np.array(a, dtype=np.float64, order="F")
        tau = np.ascontiguousarray(tau, dtype=np.float64)
        work = np.empty(lwork)
        # M N K A LDA(=M) TAU WORK LWORK INFO
        orgqr_(i, i + 8, i + 16, _data(a), i, _data(tau), _data(work), i + 24, i + 32)
        return a, work, ints[4]

    def trtrs(a, b, lower=0, trans=0):
        a = np.asfortranarray(a, dtype=np.float64)
        x = np.array(b, dtype=np.float64, order="F")
        lda, n = a.shape
        shape = x.shape
        ints = _INTS()
        ints[:4] = n, shape[1] if len(shape) == 2 else 1, lda, shape[0]  # INFO at 4
        i = ctypes.addressof(ints)
        uplo, op = b"L" if lower else b"U", b"T" if trans else b"N"
        # UPLO TRANS DIAG N NRHS A LDA B LDB INFO, then the three lengths
        trtrs_(uplo, op, b"N", i, i + 8, _data(a), i + 16, _data(x), i + 24, i + 32, 1, 1, 1)
        return x, ints[4]

    def gelsy_lwork(m, n, nrhs, cond):
        work, info = query("dgelsy", m, n, nrhs)
        return work[0], info

    def gelsy(a, b, jptv, cond, lwork, overwrite_a=0, overwrite_b=0):
        m, n = a.shape
        v = np.array(a, dtype=np.float64, order="F")
        x = np.array(b, dtype=np.float64, order="F")
        jpvt = np.array(jptv, dtype=np.int64)
        if jpvt.size != n:
            raise ValueError(f"jptv needs {n} entries, got {jpvt.size}")
        work = np.empty(1 + lwork)  # RCOND, then work
        work[0] = cond
        w = _data(work)
        shape = x.shape
        ints = _INTS()
        ints[:5] = m, n, shape[1] if len(shape) == 2 else 1, shape[0], lwork  # INFO at 5, RANK at 6
        i = ctypes.addressof(ints)
        # M N NRHS A LDA(=M) B LDB JPVT RCOND RANK WORK LWORK INFO
        gelsy_(i, i + 8, i + 16, _data(v), i, _data(x), i + 24, _data(jpvt), w, i + 48, w + 8, i + 32, i + 40)
        return v, x, jpvt.astype(np.int32), ints[6], ints[5]

    build = " ".join(config().decode().split())
    return f"{os.path.basename(path)}: {build}", (geqp3, orgqr, trtrs, gelsy, gelsy_lwork)


_NUMPY_LAPACK = _numpy_lapack()
# scipy's version where the fallback below loaded scipy, else None.
SCIPY_VERSION = None
if _NUMPY_LAPACK is None:
    # Where numpy's library or a routine is missing, scipy's own wrappers.
    with _loading_with_one_thread("scipy", "scipy.linalg._flapack"):
        _FLAPACK, SCIPY_VERSION = _load_flapack()
    LAPACK = "scipy.linalg._flapack"
    _POOLS = ("numpy", "scipy")
    _GEQP3, _ORGQR, _TRTRS, _GELSY, _GELSY_LWORK = (
        _FLAPACK.dgeqp3,
        _FLAPACK.dorgqr,
        _FLAPACK.dtrtrs,
        _FLAPACK.dgelsy,
        _FLAPACK.dgelsy_lwork,
    )
else:
    _POOLS = ("numpy",)
    LAPACK, (_GEQP3, _ORGQR, _TRTRS, _GELSY, _GELSY_LWORK) = _NUMPY_LAPACK
for _pool in _POOLS:
    _openblas(_pool, "set", 1)
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


def ols(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multivariate least squares via pivoted QR: the coefficients B, shape
    (p, n), and the residuals E = Y - X·B, shape (T, n), for Y = X·B + E;
    (p,) and (T,) for a 1-d ``y``.

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
