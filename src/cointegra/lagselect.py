"""Level-VAR lag-order selection over a common estimation sample.

All candidate lags 0..maxLag are fit with a constant term on the same
dependent rows (the first maxLag observations are reserved as presample),
so criteria are directly comparable across lags.

The candidate designs are nested: ``[1, y₋₁ … y₋ₚ]`` is a column prefix of
``[1, y₋₁ … y₋ₘₐₓ]``. So one unpivoted QR of the augmented matrix
``[1, y₋₁ … y₋ₘₐₓ | y] = Q·R`` holds every candidate's fit. With
``s = n·p + 1`` regressors and ``S = n·maxLag + 1``, the residuals of lag p
are ``Q[:, s:]·R[s:, S:]``, so ``T·Σₚ = R[s:, S:]ᵀ·R[s:, S:]``. One
factorization replaces maxLag + 1 separate least-squares fits, which
dominated the selection at maxLag 12 on long samples. Lag p's design is
rank-deficient when ``min |Rⱼⱼ|`` over ``j < s`` falls below ``RANK_TOL``
times the largest of them.

Summed in another order than per-lag fits, ``log_det_sigma``, every
criterion and every LR statistic match a separate ``linalg.ols`` fit per
lag to a relative 1e-12, not bitwise; the chosen lags are the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient, SampleTooShort
from .linalg import RANK_TOL, chi2_sf, qr_r


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

    def by_criterion(self) -> dict[str, int]:
        """The lag each of AIC, HQ, SC, FPE and LR picks; HQ and SC, like
        AIC and FPE, the lag that minimizes the criterion."""
        return {
            "aic": self.chosen["byAic"],
            "hq": min(self.per_lag, key=lambda s: s.hqic).lag,
            "sc": min(self.per_lag, key=lambda s: s.sbic).lag,
            "fpe": self.chosen["byFpe"],
            "lr": self.chosen["byLr"],
        }


def _log_det(sigma: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        raise RankDeficient("residual covariance is singular")
    return float(logdet)


def select_lags(y: np.ndarray, max_lag: int) -> LagSelection:
    """Fit lags 0..max_lag from one QR factorization and evaluate the
    selection criteria.

    Parameters
    ----------
    y : ndarray (T, n)
    max_lag : int

    Raises
    ------
    SampleTooShort
        If the common effective sample T - max_lag falls below
        5*n*max_lag/2 or leaves no residual degrees of freedom.
    RankDeficient
        If a candidate design is rank-deficient or a residual covariance
        is singular.
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

    design = np.empty((t_eff, s_max + n), order="F")
    design[:, 0] = 1.0
    for i in range(1, max_lag + 1):
        design[:, 1 + n * (i - 1) : 1 + n * i] = y[max_lag - i : t - i]
    design[:, s_max:] = y[max_lag:]
    r = qr_r(design)
    # The constant column makes |R₀₀| = √T_eff > 0, so ``largest`` is never 0.
    diag = np.abs(np.diag(r)[:s_max])
    largest = np.maximum.accumulate(diag)
    smallest = np.minimum.accumulate(diag)
    log_dets = []
    per_lag = []
    for p in range(max_lag + 1):
        s = n * p + 1
        if smallest[s - 1] < RANK_TOL * largest[s - 1]:
            raise RankDeficient(f"design matrix rank-deficient ({s} columns)")
        block = r[s : s_max + n, s_max:]
        log_det = _log_det(block.T @ block / t_eff)
        log_dets.append(log_det)

        log_lik = -(t_eff / 2.0) * (n * math.log(2.0 * math.pi) + log_det + n)
        m = n * s
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
