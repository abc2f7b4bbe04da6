"""Vector error-correction estimation, level-VAR conversion, forecasting,
impulse responses, and backtesting.

The model in differences is

    dX_t = alpha*beta'*X*_{t-1} + Gamma_1*dX_{t-1} + ... + Gamma_{k-1}*dX_{t-k+1} + mu + e_t

where X*_{t-1} carries any restricted deterministic term. Estimation is
reduced-rank maximum likelihood: beta from the cointegration eigenvectors
(identity-block normalized), alpha and the short-run terms by least squares
given beta. Residual covariance uses the maximum-likelihood divisor T.

What comes out of a fit is plain arrays: ``forecast`` gives the (h, n)
path, ``irf`` the (H+1, n, n) responses and ``backtest`` the per-variable
RMSE and MAPE, each in the variable order of the input matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    HoldoutOutOfRange,
    HorizonZero,
    RankMismatch,
    SampleTooShort,
    SingularCovariance,
)
from .johansen import (
    DeterministicCase,
    JohansenResult,
    _design_blocks,
    _require_sample,
    beta_normalize,
    johansen_test,
)
from .linalg import cholesky, ols
from .panel import PanelDataset
from .quarters import QuarterDate

@dataclass(frozen=True)
class ModelSpec:
    """Identification of one fitted model: lag order, rank, case."""

    k: int
    r: int
    case: DeterministicCase = DeterministicCase.RESTRICTED_CONSTANT

    def __post_init__(self):
        object.__setattr__(self, "case", DeterministicCase.parse(self.case))
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.r < 0:
            raise ValueError("r must be nonnegative")


@dataclass
class VecmFit:
    """Estimated VECM parameters and residuals.

    ``regressors`` is the fit's regressor block ``[z1·beta, z2]``
    (beta'X*_{t-1}, the lagged differences and any unrestricted constant),
    or None when it is empty; the LM test's auxiliary regressions extend it.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gammas: list[np.ndarray]
    mu: np.ndarray
    sigma: np.ndarray
    residuals: np.ndarray
    spec: ModelSpec
    t_eff: int
    regressors: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.sigma.shape[0]

    @property
    def pi_full(self) -> np.ndarray:
        """alpha*beta' including any restricted deterministic column."""
        if self.spec.r == 0:
            rows = self.beta.shape[0] if self.beta.size else self.n
            return np.zeros((self.n, rows))
        return self.alpha @ self.beta.T

    @property
    def pi(self) -> np.ndarray:
        """The n x n long-run impact matrix."""
        return self.pi_full[:, : self.n]


def fit_vecm(x: np.ndarray, spec: ModelSpec, johansen: JohansenResult | None = None) -> VecmFit:
    """Estimate a VECM with the rank and lag order fixed by ``spec``.

    Parameters
    ----------
    x : ndarray (T, n)
    spec : ModelSpec
    johansen : JohansenResult, optional
        The rank test already run on the same data at spec.k and spec.case;
        reused instead of running the test again.

    Raises
    ------
    RankMismatch
        If spec.r exceeds the number of available eigenvectors (n).
    ValueError
        If ``johansen`` was run at another k, case or effective sample.
    SampleTooShort, SingularS00, NumericalFailure
        Propagated from the cointegration step.
    """
    x = np.asarray(x, dtype=float)
    t, n = x.shape
    if spec.r > n:
        raise RankMismatch(f"rank {spec.r} exceeds dimension {n}")
    _require_sample(t, n, spec.k)

    z0, z1, z2, t_eff = _design_blocks(x, spec.k, spec.case)
    m = z1.shape[1]
    if johansen is not None and (johansen.k, johansen.case, johansen.t_eff) != (
        spec.k, spec.case, t_eff
    ):
        raise ValueError(
            f"rank test ran at k={johansen.k}, case={johansen.case.value}, "
            f"t_eff={johansen.t_eff}; the fit needs k={spec.k}, case={spec.case.value}, "
            f"t_eff={t_eff}"
        )

    if spec.r == 0:
        # No long-run term to estimate; the eigen step is skipped entirely.
        beta = np.zeros((m, 0))
        alpha = np.zeros((n, 0))
        target = z0
        blocks = []
    else:
        jres = johansen if johansen is not None else johansen_test(x, spec.k, spec.case)
        beta = beta_normalize(jres.beta, spec.r)
        s01 = jres.s_matrices["S01"]
        s11 = jres.s_matrices["S11"]
        bsb = beta.T @ s11 @ beta
        try:
            alpha = s01 @ beta @ np.linalg.inv(bsb)
        except np.linalg.LinAlgError as exc:
            raise SingularCovariance(f"beta'S11 beta singular: {exc}") from exc
        blocks = [z1 @ beta]
        target = z0 - blocks[0] @ alpha.T

    gammas: list[np.ndarray] = []
    mu = np.zeros(n)
    if z2 is not None:
        blocks.append(z2)
        fit = ols(z2, target)
        phi = fit.coefficients
        resid = fit.residuals
        for i in range(spec.k - 1):
            gammas.append(phi[i * n : (i + 1) * n].T.copy())
        if spec.case is DeterministicCase.UNRESTRICTED_CONSTANT:
            mu = phi[-1].copy()
    else:
        resid = target
        gammas = []

    sigma = resid.T @ resid / t_eff
    sigma = (sigma + sigma.T) / 2.0
    return VecmFit(
        alpha=alpha,
        beta=beta,
        gammas=gammas,
        mu=mu,
        sigma=sigma,
        residuals=resid,
        spec=spec,
        t_eff=t_eff,
        regressors=np.hstack(blocks) if blocks else None,
    )


def to_level_var(fit: VecmFit) -> tuple[list[np.ndarray], np.ndarray]:
    """Rewrite the fitted VECM as a level VAR.

    Returns (A_1..A_k, intercept) with A_1 = I + Pi + Gamma_1,
    A_i = Gamma_i - Gamma_{i-1}, A_k = -Gamma_{k-1}; the intercept carries mu
    plus the folded restricted-constant contribution.
    """
    n = fit.n
    k = fit.spec.k
    pi = fit.pi
    eye = np.eye(n)
    if k == 1:
        mats = [eye + pi]
    else:
        mats = [eye + pi + fit.gammas[0]]
        for i in range(1, k - 1):
            mats.append(fit.gammas[i] - fit.gammas[i - 1])
        mats.append(-fit.gammas[k - 2])
    intercept = fit.mu.copy()
    if fit.spec.case is DeterministicCase.RESTRICTED_CONSTANT and fit.spec.r > 0:
        intercept = intercept + fit.pi_full[:, n]
    return mats, intercept


def _companion_top(fit: VecmFit) -> tuple[np.ndarray, np.ndarray]:
    """``[A_1 … A_k]``, the companion matrix's top block row, and the intercept."""
    mats, intercept = to_level_var(fit)
    return np.hstack(mats), intercept


def forecast(fit: VecmFit, last_observations: np.ndarray, horizon: int) -> np.ndarray:
    """Iterate the level VAR forward with zero future shocks, one product of
    ``[A_1 … A_k]`` per quarter: the term-by-term sum to 1e-14, not bitwise.

    Parameters
    ----------
    last_observations : ndarray (k, n)
        The final k level vectors in chronological order.
    horizon : int

    Returns
    -------
    ndarray (horizon, n)
        Point forecasts in levels, C-contiguous; row h-1 is the h-step-ahead
        forecast, the quarter h after the last observation.
    """
    if horizon < 1:
        raise HorizonZero(f"horizon must be >= 1, got {horizon}")
    top, intercept = _companion_top(fit)
    k, n = fit.spec.k, fit.n
    last = np.atleast_2d(np.asarray(last_observations, dtype=float))
    if last.shape != (k, n):
        raise ValueError(f"need the last {k} level vectors, got shape {last.shape}")
    # Newest quarter first, so the k rows after row i are its state, as a view.
    path = np.concatenate([np.empty((horizon, n)), last[::-1]])
    for i in range(horizon - 1, -1, -1):
        path[i] = intercept + top @ path[i + 1 : i + 1 + k].ravel()
    return path[:horizon][::-1].copy()


def irf(fit: VecmFit, horizons: int) -> np.ndarray:
    """Orthogonalized impulse responses Theta_0..Theta_H from the companion form.

    Theta_h = J C^h J' P where C is the companion matrix of the level VAR
    and P = cholesky(sigma); Theta_0 = P. Only the top-left block of C^h is
    formed: Phi_h = [A_1 … A_k] [Phi_{h-1}; …; Phi_{h-k}], with Phi_0 = I
    and zero before it, since C's lower block rows only shift the first
    block column of C^(h-1) down.

    Returns
    -------
    ndarray (horizons + 1, n, n)
        ``[h, i, j]`` is the response of variable i at horizon h to a
        one-standard-deviation shock in equation j under the Cholesky
        ordering.
    """
    if horizons < 0:
        raise ValueError("horizons must be nonnegative")
    p = cholesky(fit.sigma)
    top, _ = _companion_top(fit)
    k, n = fit.spec.k, fit.n
    # Newest first: phi[horizons - h] is Phi_h, so the k blocks after row i
    # are its inputs, as a contiguous view.
    phi = np.zeros((horizons + k, n, n))
    phi[horizons] = np.eye(n)
    for i in range(horizons - 1, -1, -1):
        np.matmul(top, phi[i + 1 : i + 1 + k].reshape(k * n, n), out=phi[i])
    responses = np.empty((horizons + 1, n, n))
    responses[0] = p
    np.matmul(phi[:horizons][::-1], p, out=responses[1:])
    return responses


def backtest(
    panel: PanelDataset, spec: ModelSpec, holdout_start: QuarterDate
) -> tuple[np.ndarray, np.ndarray]:
    """Fit before ``holdout_start``, forecast through the panel end, score.

    Returns
    -------
    rmse, mape : ndarray (n,)
        Per variable over the holdout range: the root of the mean squared
        error, and the mean of |error|/|actual| (a fraction).

    Raises
    ------
    HoldoutOutOfRange
        If the split leaves no holdout quarter or no training quarters.
    SampleTooShort
        If the training window is too small for the requested model.
    """
    offset = holdout_start.quarters_since(panel.start)
    if offset < 1 or holdout_start > panel.end:
        raise HoldoutOutOfRange(
            f"holdout start {holdout_start} outside usable range "
            f"{panel.start.advanced(1)}..{panel.end}"
        )
    last = holdout_start.advanced(-1)
    train = panel.window(panel.start, last).levels
    try:
        fit = fit_vecm(train, spec)
    except SampleTooShort as exc:
        raise SampleTooShort(f"training window {panel.start}..{last}: {exc}") from exc
    path = forecast(fit, train[-spec.k :], len(panel) - offset)
    # One contiguous row per variable, so each mean sums in index order.
    actuals = np.ascontiguousarray(panel.levels[offset:].T)
    err = np.ascontiguousarray(path.T) - actuals
    return np.sqrt(np.mean(err**2, axis=1)), np.mean(np.abs(err) / np.abs(actuals), axis=1)
