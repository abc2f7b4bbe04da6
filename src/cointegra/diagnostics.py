"""Residual diagnostics for a fitted VECM.

Two families:

* Lagrange-multiplier autocorrelation tests, one per lag j, from an
  auxiliary regression that appends j-lagged residuals (zero-padded) to the
  original regressors and compares log determinants of the residual
  covariances.
* Normality tests (Jarque-Bera split into skewness and kurtosis parts) on
  Cholesky-orthogonalized residuals, per equation and jointly.

With m base regressors and n equations, the designs ``[base, Lʲe | e]``
for j = 0..max_lag (``L⁰e`` a zero block) are stacked and factored by one
batched unpivoted QR, in place of max_lag + 1 separate least-squares fits.
For j ≥ 1, ``T·Σⱼ = R₂₂ᵀR₂₂`` with the triangular ``R₂₂ = R[j][m+n:, m+n:]``,
so ``log|Σⱼ| = 2·Σ log|diag R₂₂| − n·log T``. For j = 0 the zero columns
reduce no rows, so rows m..m+n−1 still hold part of the base residual and
``T·Σ_base = BᵀB`` with the full block ``B = R[0][m:, m+n:]``. An auxiliary
covariance is singular when ``min |diag R₂₂|`` falls below ``RANK_TOL``
times the largest. The statistics match per-lag fits to a relative 1e-12,
not bitwise (worst 3e-14 on the bundled models).

The normality moments of all equations come from array operations on one
contiguous row per equation, which sum in the order of a loop over the
columns, so they are bitwise those of that loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, NumericalFailure, SampleTooShort, SingularCovariance
from .linalg import RANK_TOL, chi2_sf, cholesky, qr_r, solve_triangular
from .panel import VARIABLES
from .vecm import VecmFit


@dataclass
class LmResult:
    """LM autocorrelation test at one residual lag."""

    lag: int
    statistic: float
    dof: int
    pvalue: float


@dataclass
class TestStat:
    """A single chi-square test statistic."""

    stat: float
    dof: int
    pvalue: float


@dataclass
class EquationNormality:
    """Normality breakdown for one orthogonalized residual column."""

    equation: str
    skew: float
    kurtosis: float
    skew_test: TestStat
    kurtosis_test: TestStat
    jb: TestStat


@dataclass
class NormalityReport:
    """Per-equation tests plus the joint (ALL) row.

    Joint statistics are the sums of the per-equation ones with degrees of
    freedom n, n, and 2n.
    """

    per_equation: list[EquationNormality]
    joint_skew: TestStat
    joint_kurtosis: TestStat
    joint_jb: TestStat


def _log_det(sigma: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        raise SingularCovariance("residual covariance is singular")
    return float(logdet)


def lm_autocorrelation(fit: VecmFit, max_lag: int) -> list[LmResult]:
    """LM test for residual autocorrelation at each lag 1..max_lag.

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
        return []
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
    if diag.shape[1] < n or (diag.min(axis=1) < RANK_TOL * diag.max(axis=1)).any():
        raise SingularCovariance("residual covariance is singular")
    log_det_aux = 2.0 * np.log(diag).sum(axis=1) - n * math.log(t_eff)

    out = []
    dof = n * n
    for j, log_det in enumerate(log_det_aux.tolist(), start=1):
        stat = max(-(t_eff - n * j - 0.5) * (log_det - log_det_base), 0.0)
        out.append(LmResult(lag=j, statistic=stat, dof=dof, pvalue=chi2_sf(stat, dof)))
    return out


def normality_tests(fit: VecmFit) -> NormalityReport:
    """Jarque-Bera, skewness, and kurtosis tests on orthogonalized residuals.

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

    names = VARIABLES if n == len(VARIABLES) else tuple(f"var{i+1}" for i in range(n))

    # One contiguous row per equation: each mean then sums pairwise, in the
    # order of a mean over that equation's column alone, so the moments are
    # bitwise those of a loop over the columns.
    rows = np.ascontiguousarray(u.T)
    centered = rows - rows.mean(axis=1, keepdims=True)
    moments = zip(*(np.mean(centered**p, axis=1).tolist() for p in (2, 3, 4)))

    per = []
    for name, (m2, m3, m4) in zip(names, moments):
        skew = m3 / m2**1.5
        kurt = m4 / m2**2
        s_stat = t_eff * skew**2 / 6.0
        k_stat = t_eff * (kurt - 3.0) ** 2 / 24.0
        jb = s_stat + k_stat
        per.append(
            EquationNormality(
                equation=f"D_{name}",
                skew=skew,
                kurtosis=kurt,
                skew_test=TestStat(s_stat, 1, chi2_sf(s_stat, 1)),
                kurtosis_test=TestStat(k_stat, 1, chi2_sf(k_stat, 1)),
                jb=TestStat(jb, 2, chi2_sf(jb, 2)),
            )
        )

    s_sum = math.fsum(eq.skew_test.stat for eq in per)
    k_sum = math.fsum(eq.kurtosis_test.stat for eq in per)
    jb_sum = math.fsum(eq.jb.stat for eq in per)
    return NormalityReport(
        per_equation=per,
        joint_skew=TestStat(s_sum, n, chi2_sf(s_sum, n)),
        joint_kurtosis=TestStat(k_sum, n, chi2_sf(k_sum, n)),
        joint_jb=TestStat(jb_sum, 2 * n, chi2_sf(jb_sum, 2 * n)),
    )
