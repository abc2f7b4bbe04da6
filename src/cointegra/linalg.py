"""Dense matrix kernel: multivariate OLS, Cholesky, generalized symmetric eigen,
and the chi-square upper-tail p-value shared by the test statistics.

All routines are pure functions. Residual covariances use the
maximum-likelihood divisor T throughout; estimators that need a
degrees-of-freedom correction apply it at the call site.

The package uses only ``scipy.linalg`` and ``scipy.special``: importing
``scipy.stats`` would roughly double the start-up time of every CLI process,
and ``chi2_sf`` gives the same values without it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.special

from .errors import NotPositiveDefinite, RankDeficient

# Relative pivot threshold below which a design matrix is declared singular.
RANK_TOL = 1e-10


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
    q, r, piv = scipy.linalg.qr(x, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag[0] == 0.0 or diag[-1] < RANK_TOL * diag[0]:
        raise RankDeficient(f"design matrix rank-deficient ({p} columns)")
    # X·P = Q·R, so B[piv] = R⁻¹·Q'·Y: solve from the factorization above.
    coef = np.empty((p, y.shape[1]))
    coef[piv] = scipy.linalg.solve_triangular(r, q.T @ y)
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
    return float(scipy.special.chdtrc(dof, x))


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
    linv_a = scipy.linalg.solve_triangular(l, a, lower=True)
    c = scipy.linalg.solve_triangular(l, linv_a.T, lower=True)
    c = (c + c.T) / 2.0
    w, u = np.linalg.eigh(c)
    order = np.argsort(w)[::-1]
    w = w[order]
    u = u[:, order]
    v = scipy.linalg.solve_triangular(l.T, u, lower=False)
    return w, v
