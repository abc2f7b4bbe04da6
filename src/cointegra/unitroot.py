"""Augmented Dickey-Fuller unit-root testing.

The regression is

    dy_t = c + d*t + rho*y_{t-1} + sum_{i=1..lag} phi_i * dy_{t-i} + e_t

with c and d included per the deterministic case, and the statistic is the
OLS t-ratio on rho. Critical values come from embedded response-surface
coefficients evaluated at the effective sample size, so the test is
left-tailed: reject when the statistic falls below the critical value.

``adf_tests`` tests every column of a panel at once and gives the statistics
as an array beside one critical-value dict, since every column has the
same effective sample; ``adf_test`` is that path for one series. The m
designs ``[dy lags, deterministics, y_{t-1} | dy_t]`` are stacked as one
(m, T_eff, q + 1) array, q the regressor count, and factored by one
batched unpivoted QR. With y_{t-1} last among the regressors, its
coefficient is ``R[q-1, q] / R[q-1, q-1]``, the residual sum of squares
is ``R[q, q]²`` and its variance factor ``(X'X)⁻¹`` entry is
``1 / R[q-1, q-1]²``, so

    t = R[q-1, q] * sign(R[q-1, q-1]) / (|R[q, q]| / sqrt(T_eff - q)).

This replaces a pivoted-QR least-squares fit and an explicit ``(X'X)⁻¹``
per series, which made the ADF screen about an eighth of a pipeline run.
A design is rank-deficient when ``linalg.rank_deficient`` finds ``Rⱼⱼ``
over ``j < q`` singular.

The statistics match a per-series fit to a relative 1e-12 (absolute 1e-12
near zero), not bitwise; on the bundled panels, whose levels sit about 20
standard deviations from zero, the worst relative difference is 6e-12 and
no ``%.6g`` digit moves. Where the level is much farther from zero, the
explicit inverse, which squares cond(X), was the less accurate of the two.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstantSeries, RankDeficient, SampleTooShort
from .linalg import qr_r, rank_deficient

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


def _critical_values(case: str, t_eff: int) -> dict[float, float]:
    out = {}
    for level, (b0, b1, b2, b3) in _CV_SURFACE[case].items():
        out[level] = b0 + b1 / t_eff + b2 / t_eff**2 + b3 / t_eff**3
    return out


def adf_tests(
    y: np.ndarray, lag_order: int, deterministic: str = "constant", names: tuple | None = None
) -> tuple[np.ndarray, dict[float, float]]:
    """Test each column of ``y`` for a unit root: the (m,) statistics and
    the critical values at levels 0.01, 0.05 and 0.10. Column j rejects a
    unit root at level a when its statistic is below the level's value.

    Parameters
    ----------
    y : 2-d array (T, m)
        One series per column.
    lag_order : int
        Number of lagged differences augmenting each regression.
    deterministic : str
        'none', 'constant', or 'constantTrend'.
    names : sequence of str, optional
        Column names; an error for column i ends with ``in '<names[i]>'``.

    Raises
    ------
    SampleTooShort
        If T < lag_order + 10.
    ValueError
        If ``y`` holds a NaN or an infinity, before any column is tested.
    ConstantSeries
        If a series has zero variance.
    RankDeficient
        If a design has no more rows than regressors or is rank-deficient.

    The first column that fails decides the error, as testing the columns
    one at a time in order would.
    """
    if deterministic not in DETERMINISTIC_CASES:
        raise ValueError(f"deterministic must be one of {DETERMINISTIC_CASES}")
    if lag_order < 0:
        raise ValueError("lag_order must be nonnegative")
    values = np.asarray(y, dtype=float)
    length, m = values.shape
    if length < lag_order + 10:
        raise SampleTooShort(f"need at least {lag_order + 10} observations, got {length}")

    dy = np.diff(values, axis=0).T
    # Dependent variable runs over t = lag_order+1 .. length-1.
    t_eff = length - 1 - lag_order
    # A case's index in DETERMINISTIC_CASES is its number of deterministic columns.
    q = lag_order + DETERMINISTIC_CASES.index(deterministic) + 1
    stack = np.empty((m, t_eff, q + 1))
    for i in range(1, lag_order + 1):
        stack[:, :, i - 1] = dy[:, lag_order - i : dy.shape[1] - i]
    if deterministic in ("constant", "constantTrend"):
        stack[:, :, lag_order] = 1.0
    if deterministic == "constantTrend":
        stack[:, :, lag_order + 1] = np.arange(1.0, t_eff + 1.0)
    stack[:, :, q - 1] = values[lag_order:-1].T
    stack[:, :, q] = dy[:, lag_order:]
    r = qr_r(stack)

    singular = rank_deficient(np.diagonal(r, axis1=1, axis2=2)[:, :q])
    constant = np.ptp(values, axis=0) == 0.0
    # Checked column by column, so the first column that fails decides the error.
    for j in range(m):
        where = "" if names is None else f" in {names[j]!r}"
        if constant[j]:
            raise ConstantSeries(f"series has zero variance{where}")
        if t_eff <= q:
            raise RankDeficient(f"need more rows than regressors, got {t_eff}x{q}{where}")
        if singular[j]:
            raise RankDeficient(f"design matrix rank-deficient ({q} columns){where}")

    stats = r[:, q - 1, q] * np.sign(r[:, q - 1, q - 1]) * np.sqrt(t_eff - q) / np.abs(r[:, q, q])
    return stats, _critical_values(deterministic, t_eff)


def adf_test(
    y: np.ndarray, lag_order: int, deterministic: str = "constant"
) -> tuple[float, dict[float, float]]:
    """Test a single series for a unit root: the statistic and critical
    values of ``adf_tests`` on one column, raising what it raises."""
    stats, cvs = adf_tests(np.asarray(y, dtype=float).reshape(-1, 1), lag_order, deterministic)
    return float(stats[0]), cvs
