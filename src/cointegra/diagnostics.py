"""Residual diagnostics for a fitted VECM.

Two families:

* Lagrange-multiplier autocorrelation tests, one per lag j, from an
  auxiliary regression that appends j-lagged residuals (zero-padded) to the
  original regressors and compares log determinants of the residual
  covariances.
* Normality tests (Jarque-Bera split into skewness and kurtosis parts) on
  Cholesky-orthogonalized residuals, per equation and jointly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, NumericalFailure, SampleTooShort, SingularCovariance
from .johansen import _design_blocks
from .linalg import chi2_sf, cholesky, lstsq, solve_triangular
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


def _original_regressors(fit: VecmFit) -> np.ndarray | None:
    """Regressor block of the fitted model: [beta'X*_{t-1}, dX lags, const]."""
    spec = fit.spec
    if fit.source_levels is None:
        raise ValueError("fit carries no source levels; refit before diagnostics")
    z0, z1, z2, _t_eff = _design_blocks(fit.source_levels, spec.k, spec.case)
    blocks = []
    if spec.r > 0:
        blocks.append(z1 @ fit.beta)
    if z2 is not None:
        blocks.append(z2)
    if not blocks:
        return None
    return np.hstack(blocks)


def lm_autocorrelation(fit: VecmFit, max_lag: int) -> list[LmResult]:
    """LM test for residual autocorrelation at each lag 1..max_lag.

    For lag j the residuals are regressed on the original regressors plus
    the residuals lagged j (missing leading rows set to zero); the statistic
    is -(T_eff - n*j - 0.5) * ln(|Sigma_aux_j| / |Sigma_base|) with n^2
    degrees of freedom.

    Raises
    ------
    SampleTooShort
        If T_eff does not exceed n*max_lag plus the regressor count.
    SingularCovariance
        If either covariance determinant is non-positive.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    if max_lag == 0:
        return []
    e = fit.residuals
    t_eff, n = e.shape
    base = _original_regressors(fit)
    n_regressors = 0 if base is None else base.shape[1]
    if t_eff <= n * max_lag + n_regressors:
        raise SampleTooShort(
            f"effective sample {t_eff} too small for LM at lag {max_lag}"
        )

    if base is None:
        sigma_base = e.T @ e / t_eff
    else:
        base_resid = e - base @ lstsq(base, e)
        sigma_base = base_resid.T @ base_resid / t_eff
    log_det_base = _log_det(sigma_base)

    out = []
    for j in range(1, max_lag + 1):
        lagged = np.zeros_like(e)
        lagged[j:] = e[:-j]
        aux_x = lagged if base is None else np.hstack([base, lagged])
        aux_resid = e - aux_x @ lstsq(aux_x, e)
        sigma_aux = aux_resid.T @ aux_resid / t_eff
        stat = -(t_eff - n * j - 0.5) * (_log_det(sigma_aux) - log_det_base)
        stat = max(stat, 0.0)
        dof = n * n
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

    per = []
    for j in range(n):
        col = u[:, j]
        centered = col - col.mean()
        m2 = float(np.mean(centered**2))
        m3 = float(np.mean(centered**3))
        m4 = float(np.mean(centered**4))
        skew = m3 / m2**1.5
        kurt = m4 / m2**2
        s_stat = t_eff * skew**2 / 6.0
        k_stat = t_eff * (kurt - 3.0) ** 2 / 24.0
        jb = s_stat + k_stat
        per.append(
            EquationNormality(
                equation=f"D_{names[j]}",
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
