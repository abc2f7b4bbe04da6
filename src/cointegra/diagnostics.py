"""Residual diagnostics for a fitted VECM.

Two families:

* Lagrange-multiplier autocorrelation tests, one per lag j, from an
  auxiliary regression that appends j-lagged residuals (zero-padded) to the
  original regressors and compares log determinants of the residual
  covariances.
* Normality tests (Jarque-Bera split into skewness and kurtosis parts) on
  Cholesky-orthogonalized residuals, per equation and jointly.

Both give plain arrays of statistics and p-values, in equation and lag
order; ``pipeline``'s report builders name the rows and write the degrees
of freedom.

With m base regressors and n equations, the designs ``[base, Lʲe | e]``
for j = 0..max_lag (``L⁰e`` a zero block) are stacked and factored by one
batched unpivoted QR, in place of max_lag + 1 separate least-squares fits.
For j ≥ 1, ``T·Σⱼ = R₂₂ᵀR₂₂`` with the triangular ``R₂₂ = R[j][m+n:, m+n:]``,
so ``log|Σⱼ| = 2·Σ log|diag R₂₂| − n·log T``. For j = 0 the zero columns
reduce no rows, so rows m..m+n−1 still hold part of the base residual and
``T·Σ_base = BᵀB`` with the full block ``B = R[0][m:, m+n:]``. An auxiliary
covariance is singular when ``linalg.rank_deficient`` finds ``R₂₂``
singular. The statistics match per-lag fits to a relative 1e-12,
not bitwise (worst 3e-14 on the bundled models).

The normality moments of all equations come from array operations on one
contiguous row per equation, which sum in the order of a loop over the
columns, so they are bitwise those of that loop.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotPositiveDefinite, NumericalFailure, SampleTooShort, SingularCovariance
from .linalg import chi2_sf, cholesky, qr_r, rank_deficient, solve_triangular
from .vecm import VecmFit

# Degrees of freedom of one equation's skewness, kurtosis and Jarque-Bera
# tests; the joint tests of n equations have n times as many.
NORMALITY_DOF = (1, 1, 2)


def _log_det(sigma: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        raise SingularCovariance("residual covariance is singular")
    return float(logdet)


def lm_autocorrelation(fit: VecmFit, max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    """LM test for residual autocorrelation at each lag 1..max_lag: the
    statistics and p-values, entry j - 1 for lag j.

    For lag j the residuals are regressed on the fit's regressors plus
    the residuals lagged j (missing leading rows set to zero); the statistic
    is -(T_eff - n*j - 0.5) * ln(|Sigma_aux_j| / |Sigma_base|) with n^2
    degrees of freedom. All max_lag + 1 regressions come from one stacked
    QR factorization (module docstring).

    Raises
    ------
    SampleTooShort
        If T_eff does not exceed n*max_lag plus the regressor count.
    SingularCovariance
        If the base covariance determinant is non-positive or an auxiliary
        residual block is rank-deficient.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    if max_lag == 0:
        return np.empty(0), np.empty(0)
    e = fit.residuals
    t_eff, n = e.shape
    base = fit.regressors
    m = 0 if base is None else base.shape[1]
    if t_eff <= n * max_lag + m:
        raise SampleTooShort(
            f"effective sample {t_eff} too small for LM at lag {max_lag}"
        )

    stack = np.zeros((max_lag + 1, t_eff, m + 2 * n))
    if base is not None:
        stack[:, :, :m] = base
    for j in range(1, max_lag + 1):
        stack[j, j:, m : m + n] = e[:-j]
    stack[:, :, m + n :] = e
    r = qr_r(stack)

    # The zero block of j = 0 leaves rows m..m+n-1 unreduced, so the base
    # residual cross-product is the full block below row m.
    block = r[0, m:, m + n :]
    log_det_base = _log_det(block.T @ block / t_eff)
    # With fewer than m + 2n rows an auxiliary residual has rank below n.
    diag = np.abs(np.diagonal(r[1:, m + n :, m + n :], axis1=1, axis2=2))
    if diag.shape[1] < n or rank_deficient(diag).any():
        raise SingularCovariance("residual covariance is singular")
    log_det_aux = 2.0 * np.log(diag).sum(axis=1) - n * math.log(t_eff)

    stats = [
        max(-(t_eff - n * j - 0.5) * (log_det - log_det_base), 0.0)
        for j, log_det in enumerate(log_det_aux.tolist(), start=1)
    ]
    return np.array(stats), np.array([chi2_sf(stat, n * n) for stat in stats])


def normality_tests(fit: VecmFit) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Skewness, kurtosis and Jarque-Bera tests on orthogonalized residuals.

    Returns the (n,) skewness and kurtosis per equation, and the (n + 1, 3)
    statistics and p-values, columns skewness, kurtosis and Jarque-Bera:
    row i for equation i, with ``NORMALITY_DOF`` degrees of freedom, and
    the last row the joint test, whose statistics are the sums of the rows
    above with n times as many.

    Residuals are transformed as U = E (P^-1)' with P = cholesky(sigma), so
    the columns are contemporaneously uncorrelated with unit variance;
    moments use central sums with divisor T_eff and kurtosis is measured
    against the normal baseline of 3.

    Raises
    ------
    SampleTooShort
        If T_eff < 10.
    SingularCovariance
        If sigma has no Cholesky factor.
    """
    e = fit.residuals
    t_eff, n = e.shape
    if t_eff < 10:
        raise SampleTooShort(f"need at least 10 residual rows, got {t_eff}")
    try:
        p = cholesky(fit.sigma)
    except NotPositiveDefinite as exc:
        raise SingularCovariance(str(exc)) from exc
    u = solve_triangular(p, e.T, lower=True).T

    gram = u.T @ u / t_eff
    off = gram - np.diag(np.diag(gram))
    if np.max(np.abs(off)) > 1e-8:
        raise NumericalFailure("orthogonalized residuals are not uncorrelated")

    # One contiguous row per equation: each mean then sums pairwise, in the
    # order of a mean over that equation's column alone, so the moments are
    # bitwise those of a loop over the columns.
    rows = np.ascontiguousarray(u.T)
    centered = rows - rows.mean(axis=1, keepdims=True)
    m2, m3, m4 = (np.mean(centered**p, axis=1).tolist() for p in (2, 3, 4))

    skews = [b / a**1.5 for a, b in zip(m2, m3)]
    kurts = [c / a**2 for a, c in zip(m2, m4)]
    stats = []
    for skew, kurt in zip(skews, kurts):
        s_stat = t_eff * skew**2 / 6.0
        k_stat = t_eff * (kurt - 3.0) ** 2 / 24.0
        stats.append((s_stat, k_stat, s_stat + k_stat))
    stats.append(tuple(map(math.fsum, zip(*stats))))
    dofs = [NORMALITY_DOF] * n + [tuple(n * dof for dof in NORMALITY_DOF)]
    pvalues = [tuple(map(chi2_sf, row, dof)) for row, dof in zip(stats, dofs)]
    return np.array(skews), np.array(kurts), np.array(stats), np.array(pvalues)
