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
criterion and every LR statistic match a separate pivoted-QR least-squares
fit per lag (the reference in ``tests/test_lagselect.py``) to a relative
1e-12, not bitwise; the chosen lags are the same.

The result, a ``LagSelection``, holds each criterion as an array over the
lags beside the lag each criterion picks (``chosen``, keyed ``aic``, ``hq``,
``sc``, ``fpe`` and ``lr``); ``pipeline.lags_lines`` writes its rows and
flags the AIC, FPE and LR picks, and the run manifest's ``lagChoice`` is
``chosen`` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient, SampleTooShort
from .linalg import RANK_TOL, chi2_sf, qr_r


@dataclass
class LagSelection:
    """Criteria of lags 0..max_lag on the common sample, and the chosen orders.

    ``log_lik``, ``log_det_sigma``, ``aic``, ``fpe``, ``hqic`` and ``sbic``
    hold one value per lag 0..max_lag. ``lr_statistic[p - 1]`` and
    ``lr_pvalue[p - 1]`` test lag p against lag p - 1, for p = 1..max_lag.

    ``chosen`` maps each of 'aic', 'hq', 'sc', 'fpe' and 'lr' to the lag it
    picks. The first four pick the first lag that minimizes AIC, HQ (``hqic``),
    SC (``sbic``) or FPE; 'lr' is the largest lag whose likelihood-ratio test
    against the next-shorter model rejects at 5%, scanning from max_lag
    downward, and 0 when none rejects.
    """

    max_lag: int
    log_lik: np.ndarray
    log_det_sigma: np.ndarray
    aic: np.ndarray
    fpe: np.ndarray
    hqic: np.ndarray
    sbic: np.ndarray
    lr_statistic: np.ndarray
    lr_pvalue: np.ndarray
    chosen: dict[str, int]


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
        5*n*max_lag/2 or leaves no residual degrees of freedom; the message
        names T and the smallest T that passes.
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
    # The fewest rows T with T - max_lag >= 5·n·max_lag/2 and T - max_lag > s_max.
    need = max_lag + max((5 * n * max_lag + 1) // 2, s_max + 1)
    if t < need:
        raise SampleTooShort(f"{t} quarters available; max_lag={max_lag} needs at least {need}")

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
    rows = []
    for p in range(max_lag + 1):
        s = n * p + 1
        if smallest[s - 1] < RANK_TOL * largest[s - 1]:
            raise RankDeficient(f"design matrix rank-deficient ({s} columns)")
        block = r[s : s_max + n, s_max:]
        log_det = _log_det(block.T @ block / t_eff)

        log_lik = -(t_eff / 2.0) * (n * math.log(2.0 * math.pi) + log_det + n)
        m = n * s
        aic = (-2.0 * log_lik + 2.0 * m) / t_eff
        fpe = math.exp(log_det) * ((t_eff + s) / (t_eff - s)) ** n
        hqic = (-2.0 * log_lik + 2.0 * math.log(math.log(t_eff)) * m) / t_eff
        sbic = (-2.0 * log_lik + math.log(t_eff) * m) / t_eff
        rows.append((log_lik, log_det, aic, fpe, hqic, sbic))
    log_lik, log_det, aic, fpe, hqic, sbic = np.array(rows).T

    # Lag p against p - 1, with lag p's s = n·p + 1 regressors.
    lr = [
        max((t_eff - n * p - 1) * (log_det[p - 1] - log_det[p]), 0.0)
        for p in range(1, max_lag + 1)
    ]
    lr_p = np.array([chi2_sf(stat, n * n) for stat in lr])
    minimized = {"aic": aic, "hq": hqic, "sc": sbic, "fpe": fpe}
    chosen = {name: int(np.argmin(values)) for name, values in minimized.items()}
    # The last lag whose test rejects, scanning down; 0 when none does.
    chosen["lr"] = next((p for p in range(max_lag, 0, -1) if lr_p[p - 1] < 0.05), 0)
    return LagSelection(max_lag, log_lik, log_det, aic, fpe, hqic, sbic, np.array(lr), lr_p, chosen)
