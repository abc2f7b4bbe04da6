"""Augmented Dickey-Fuller unit-root testing.

The regression is

    dy_t = c + d*t + rho*y_{t-1} + sum_{i=1..lag} phi_i * dy_{t-i} + e_t

with c and d included per the deterministic case, and the statistic is the
OLS t-ratio on rho. Critical values come from embedded response-surface
coefficients evaluated at the effective sample size, so the test is
left-tailed: reject when the statistic falls below the critical value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstantSeries, SampleTooShort
from .linalg import ols

DETERMINISTIC_CASES = ("none", "constant", "constantTrend")

# Response-surface coefficients (b0, b1, b2, b3) for the asymptotic critical
# value plus 1/T, 1/T^2, 1/T^3 corrections, per deterministic case and level.
_CV_SURFACE = {
    "none": {
        0.01: (-2.56574, -2.2358, -3.627, 0.0),
        0.05: (-1.94100, -0.2686, -3.365, 31.223),
        0.10: (-1.61682, 0.2656, -2.714, 25.364),
    },
    "constant": {
        0.01: (-3.43035, -6.5393, -16.786, -79.433),
        0.05: (-2.86154, -2.8903, -4.234, -40.040),
        0.10: (-2.56677, -1.5384, -2.809, 0.0),
    },
    "constantTrend": {
        0.01: (-3.95877, -9.0531, -28.428, -134.155),
        0.05: (-3.41049, -4.3904, -9.036, -45.374),
        0.10: (-3.12705, -2.5856, -3.925, -22.380),
    },
}


@dataclass
class AdfResult:
    """Outcome of one ADF test."""

    statistic: float
    lag_order: int
    deterministic: str
    critical_values: dict[float, float]
    reject_at_5pct: bool


def _critical_values(case: str, t_eff: int) -> dict[float, float]:
    out = {}
    for level, (b0, b1, b2, b3) in _CV_SURFACE[case].items():
        out[level] = b0 + b1 / t_eff + b2 / t_eff**2 + b3 / t_eff**3
    return out


def adf_test(y: np.ndarray, lag_order: int, deterministic: str = "constant") -> AdfResult:
    """Test a single series for a unit root.

    Parameters
    ----------
    y : 1-d array
    lag_order : int
        Number of lagged differences augmenting the regression.
    deterministic : str
        'none', 'constant', or 'constantTrend'.

    Raises
    ------
    SampleTooShort
        If len(y) < lag_order + 10.
    ConstantSeries
        If the series has zero variance.
    """
    if deterministic not in DETERMINISTIC_CASES:
        raise ValueError(f"deterministic must be one of {DETERMINISTIC_CASES}")
    if lag_order < 0:
        raise ValueError("lag_order must be nonnegative")
    values = np.asarray(y, dtype=float)
    length = values.size
    if length < lag_order + 10:
        raise SampleTooShort(f"need at least {lag_order + 10} observations, got {length}")
    if np.ptp(values) == 0.0:
        raise ConstantSeries("series has zero variance")

    dy = np.diff(values)
    # Dependent variable runs over t = lag_order+1 .. length-1.
    lhs = dy[lag_order:]
    t_eff = lhs.size
    cols = [values[lag_order:-1]]
    for i in range(1, lag_order + 1):
        cols.append(dy[lag_order - i : dy.size - i])
    if deterministic in ("constant", "constantTrend"):
        cols.append(np.ones(t_eff))
    if deterministic == "constantTrend":
        cols.append(np.arange(1.0, t_eff + 1.0))
    x = np.column_stack(cols)

    fit = ols(x, lhs)
    resid = fit.residuals
    dof = t_eff - x.shape[1]
    s2 = float(resid @ resid) / dof
    xtx_inv = np.linalg.inv(x.T @ x)
    se_rho = np.sqrt(s2 * xtx_inv[0, 0])
    stat = float(fit.coefficients[0] / se_rho)

    cvs = _critical_values(deterministic, t_eff)
    return AdfResult(
        statistic=stat,
        lag_order=lag_order,
        deterministic=deterministic,
        critical_values=cvs,
        reject_at_5pct=stat < cvs[0.05],
    )
