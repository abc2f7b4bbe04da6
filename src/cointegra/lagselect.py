"""Level-VAR lag-order selection over a common estimation sample.

All candidate lags 0..maxLag are fit with a constant term on the same
dependent rows (the first maxLag observations are reserved as presample),
so criteria are directly comparable across lags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient, SampleTooShort
from .linalg import chi2_sf, ols


@dataclass
class LagStats:
    """Criteria for one candidate lag on the common sample."""

    lag: int
    log_lik: float
    log_det_sigma: float
    aic: float
    fpe: float
    hqic: float
    sbic: float
    lr_statistic: float | None
    lr_pvalue: float | None


@dataclass
class LagSelection:
    """Per-lag criteria plus the chosen orders.

    chosen maps 'byAic', 'byFpe', 'byLr' to a lag. byLr is the largest lag
    whose likelihood-ratio test against the next-shorter model rejects at 5%,
    scanning from maxLag downward; 0 when none rejects.
    """

    max_lag: int
    per_lag: list[LagStats]
    chosen: dict[str, int]


def _log_det(sigma: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        raise RankDeficient("residual covariance is singular")
    return float(logdet)


def select_lags(y: np.ndarray, max_lag: int) -> LagSelection:
    """Fit lags 0..max_lag and evaluate the selection criteria.

    Parameters
    ----------
    y : ndarray (T, n)
    max_lag : int

    Raises
    ------
    SampleTooShort
        If the common effective sample T - max_lag falls below
        5*n*max_lag/2 or leaves no residual degrees of freedom.
    """
    y = np.asarray(y, dtype=float)
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    t, n = y.shape
    t_eff = t - max_lag
    s_max = n * max_lag + 1
    if t_eff < 5 * n * max_lag / 2 or t_eff <= s_max:
        raise SampleTooShort(
            f"effective sample {t_eff} too small for n={n}, max_lag={max_lag}"
        )

    lhs = y[max_lag:]
    log_dets = []
    per_lag = []
    for p in range(max_lag + 1):
        cols = [np.ones((t_eff, 1))]
        for i in range(1, p + 1):
            cols.append(y[max_lag - i : t - i])
        x = np.hstack(cols)
        sigma = ols(x, lhs).residual_covariance
        log_det = _log_det(sigma)
        log_dets.append(log_det)

        log_lik = -(t_eff / 2.0) * (n * math.log(2.0 * math.pi) + log_det + n)
        m = n * (n * p + 1)
        s = n * p + 1
        aic = (-2.0 * log_lik + 2.0 * m) / t_eff
        sbic = (-2.0 * log_lik + math.log(t_eff) * m) / t_eff
        hqic = (-2.0 * log_lik + 2.0 * math.log(math.log(t_eff)) * m) / t_eff
        fpe = math.exp(log_det) * ((t_eff + s) / (t_eff - s)) ** n
        if p == 0:
            lr, lr_p = None, None
        else:
            lr = (t_eff - s) * (log_dets[p - 1] - log_det)
            lr = max(lr, 0.0)
            lr_p = chi2_sf(lr, n * n)
        per_lag.append(
            LagStats(p, log_lik, log_det, aic, fpe, hqic, sbic, lr, lr_p)
        )

    by_aic = min(per_lag, key=lambda r: r.aic).lag
    by_fpe = min(per_lag, key=lambda r: r.fpe).lag
    by_lr = 0
    for p in range(max_lag, 0, -1):
        if per_lag[p].lr_pvalue is not None and per_lag[p].lr_pvalue < 0.05:
            by_lr = p
            break
    return LagSelection(
        max_lag=max_lag,
        per_lag=per_lag,
        chosen={"byAic": by_aic, "byFpe": by_fpe, "byLr": by_lr},
    )
