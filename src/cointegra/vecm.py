"""Vector error-correction estimation, level-VAR conversion, forecasting,
impulse responses, and backtesting.

The model in differences is

    dX_t = alpha*beta'*X*_{t-1} + Gamma_1*dX_{t-1} + ... + Gamma_{k-1}*dX_{t-k+1} + mu + e_t

where X*_{t-1} carries any restricted deterministic term. Estimation is
reduced-rank maximum likelihood: beta from the cointegration eigenvectors
(identity-block normalized), alpha and the short-run terms by least squares
given beta. Residual covariance uses the maximum-likelihood divisor T.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    beta_normalize,
    johansen_test,
)
from .linalg import cholesky, ols
from .panel import VARIABLES, PanelDataset
from .quarters import QuarterDate

# The cases the estimator can fit; the trend cases are rank-test only.
FIT_CASES = (
    DeterministicCase.NONE,
    DeterministicCase.RESTRICTED_CONSTANT,
    DeterministicCase.UNRESTRICTED_CONSTANT,
)


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

    source_levels keeps the level matrix the model was fit on so diagnostic
    auxiliary regressions can rebuild the original design blocks.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gammas: list[np.ndarray]
    mu: np.ndarray
    sigma: np.ndarray
    residuals: np.ndarray
    spec: ModelSpec
    t_eff: int
    source_levels: np.ndarray | None = None

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


@dataclass
class ForecastPath:
    """Point forecasts in levels; row h-1 is the h-step-ahead forecast."""

    origin: QuarterDate | None
    horizon: int
    values: np.ndarray

    def quarters(self) -> list[QuarterDate]:
        if self.origin is None:
            raise ValueError("forecast path carries no origin quarter")
        return [self.origin.advanced(h) for h in range(1, self.horizon + 1)]


@dataclass
class IrfSet:
    """Orthogonalized impulse responses Theta_0..Theta_H.

    responses[h][i, j] is the response of variable i at horizon h to a
    one-standard-deviation shock in equation j under the Cholesky ordering.
    """

    responses: list[np.ndarray]


@dataclass
class BacktestResult:
    """Holdout evaluation: aligned forecast/actual paths and error metrics."""

    spec: ModelSpec
    holdout_start: QuarterDate
    quarters: list[QuarterDate]
    forecasts: np.ndarray
    actuals: np.ndarray
    metrics: dict[str, dict[str, float]] = field(default_factory=dict)


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
    if spec.case not in FIT_CASES:
        raise ValueError(
            f"fitting supports cases {[c.value for c in FIT_CASES]}, got {spec.case.value}"
        )
    x = np.asarray(x, dtype=float)
    t, n = x.shape
    if spec.r > n:
        raise RankMismatch(f"rank {spec.r} exceeds dimension {n}")
    if t - spec.k < 10 + n * spec.k:
        raise SampleTooShort(
            f"effective sample {t - spec.k} below minimum {10 + n * spec.k}"
        )

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
        target = z0 - z1 @ beta @ alpha.T

    gammas: list[np.ndarray] = []
    mu = np.zeros(n)
    if z2 is not None:
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
        source_levels=x,
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


def forecast(
    fit: VecmFit,
    last_observations: np.ndarray,
    horizon: int,
    origin: QuarterDate | None = None,
) -> ForecastPath:
    """Iterate the level VAR forward with zero future shocks, one product of
    ``[A_1 … A_k]`` per quarter: the term-by-term sum to 1e-14, not bitwise.

    Parameters
    ----------
    last_observations : ndarray (k, n)
        The final k level vectors in chronological order.
    horizon : int
    origin : QuarterDate, optional
        Quarter of the last observation; forecast row h then dates to
        origin advanced by h+1 quarters.
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
    out = path[:horizon][::-1].copy()
    return ForecastPath(origin=origin, horizon=horizon, values=out)


def irf(fit: VecmFit, horizons: int) -> IrfSet:
    """Orthogonalized impulse responses from the companion form.

    Theta_h = J C^h J' P where C is the companion matrix of the level VAR
    and P = cholesky(sigma); Theta_0 = P.
    """
    if horizons < 0:
        raise ValueError("horizons must be nonnegative")
    p = cholesky(fit.sigma)
    top, _ = _companion_top(fit)
    n, nk = top.shape
    companion = np.vstack([top, np.eye(nk - n, nk)])
    responses = [p.copy()]
    power = np.eye(nk)
    for _ in range(horizons):
        power = companion @ power
        responses.append(power[:n, :n] @ p)
    return IrfSet(responses=responses)


def backtest(panel: PanelDataset, spec: ModelSpec, holdout_start: QuarterDate) -> BacktestResult:
    """Fit before ``holdout_start``, forecast through the panel end, score.

    rmse is the root of the mean squared error and mape the mean of
    |error|/|actual| (a fraction), both per variable over the holdout range.

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
    train = panel.window(panel.start, holdout_start.advanced(-1))
    horizon = panel.end.quarters_since(holdout_start) + 1
    x = train.matrix()
    fit = fit_vecm(x, spec)
    path = forecast(fit, x[-spec.k :], horizon, origin=train.end)
    actuals = panel.matrix()[offset : offset + horizon]
    metrics = {}
    for j, name in enumerate(VARIABLES):
        err = path.values[:, j] - actuals[:, j]
        rmse = float(np.sqrt(np.mean(err**2)))
        mape = float(np.mean(np.abs(err) / np.abs(actuals[:, j])))
        metrics[name] = {"rmse": rmse, "mape": mape}
    return BacktestResult(
        spec=spec,
        holdout_start=holdout_start,
        quarters=path.quarters(),
        forecasts=path.values,
        actuals=actuals,
        metrics=metrics,
    )
