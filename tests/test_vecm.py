import os

import numpy as np
import pytest

from cointegra.errors import (
    HoldoutOutOfRange,
    HorizonZero,
    RankDeficient,
    RankMismatch,
    SampleTooShort,
)
from cointegra.johansen import DeterministicCase
from cointegra.panel import VARIABLES, PanelDataset, ingest_panel
from cointegra.quarters import QuarterDate
from cointegra.vecm import (
    ModelSpec,
    VecmFit,
    _companion_top,
    backtest,
    fit_vecm,
    forecast,
    irf,
    to_level_var,
)


def make_fit(alpha, beta, gammas, mu, spec, n=None, sigma=None):
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if n is None:
        n = alpha.shape[0]
    if sigma is None:
        sigma = np.eye(n)
    return VecmFit(
        alpha=alpha,
        beta=beta,
        gammas=[np.asarray(g, dtype=float) for g in gammas],
        mu=np.asarray(mu, dtype=float),
        sigma=np.asarray(sigma, dtype=float),
        residuals=np.zeros((12, n)),
        spec=spec,
        t_eff=12,
    )


def random_walk_fit(n=2, k=1, case="none"):
    spec = ModelSpec(k=k, r=0, case=case)
    gammas = [np.zeros((n, n)) for _ in range(k - 1)]
    return make_fit(np.zeros((n, 0)), np.zeros((n, 0)), gammas, np.zeros(n), spec, n=n)


def vecm_recursion_forecast(fit, last_obs, horizon):
    """Independent forecast oracle via the difference-form recursion."""
    k, n = fit.spec.k, fit.n
    levels = [np.asarray(row, dtype=float) for row in last_obs]
    diffs = [levels[i + 1] - levels[i] for i in range(k - 1)]
    rconst = fit.spec.case is DeterministicCase.RESTRICTED_CONSTANT
    out = []
    for _ in range(horizon):
        prev = levels[-1]
        dx = fit.mu.copy()
        if fit.spec.r > 0:
            zstar = np.append(prev, 1.0) if rconst else prev
            dx = dx + fit.alpha @ (fit.beta.T @ zstar)
        for i, g in enumerate(fit.gammas):
            dx = dx + g @ diffs[-1 - i]
        nxt = prev + dx
        out.append(nxt)
        levels.append(nxt)
        diffs.append(dx)
    return np.array(out)


def simulate_panel(seed=0, length=80):
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.standard_normal(length)) * 0.05
    drifts = [np.cumsum(rng.standard_normal(length)) * 0.03 for _ in VARIABLES]
    levels = 100.0 * np.exp(base[:, None] + np.column_stack(drifts))
    return PanelDataset("AL", 113, QuarterDate(2001, 1), levels)


def trending_price_panel():
    """A simulated panel whose price is 0.5 + 0.01·t: its difference is
    constant, so at k = 3 with an unrestricted constant the short-run design
    (two lags of five differences and the constant) has rank below 11."""
    panel = simulate_panel(seed=3, length=72)
    levels = panel.levels.copy()
    levels[:, VARIABLES.index("price")] = 0.5 + 0.01 * np.arange(72.0)
    return PanelDataset(panel.state, panel.naics, panel.start, levels)


TRENDING_PRICE_SPEC = ModelSpec(k=3, r=0, case="uconst")
RANK_DEFICIENT_11 = r"^design matrix rank-deficient \(11 columns\)$"


class TestModelSpec:
    def test_case_parsed(self):
        spec = ModelSpec(k=2, r=1, case="rconst")
        assert spec.case is DeterministicCase.RESTRICTED_CONSTANT

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            ModelSpec(k=0, r=1)
        with pytest.raises(ValueError):
            ModelSpec(k=1, r=-1)


class TestFit:
    def test_rank_zero_is_pure_differences(self):
        rng = np.random.default_rng(5)
        data = np.cumsum(rng.standard_normal((60, 2)), axis=0) + 50.0
        fit = fit_vecm(data, ModelSpec(k=1, r=0, case="none"))
        assert fit.alpha.shape == (2, 0)
        assert fit.beta.shape == (2, 0)
        assert fit.gammas == []
        assert np.allclose(fit.residuals, np.diff(data, axis=0))
        path = forecast(fit, data[-1:], 20)
        assert np.all(path == data[-1])

    def test_rank_exceeding_dimension(self):
        rng = np.random.default_rng(6)
        data = np.cumsum(rng.standard_normal((60, 2)), axis=0)
        with pytest.raises(RankMismatch):
            fit_vecm(data, ModelSpec(k=1, r=3, case="none"))

    def test_short_sample(self):
        rng = np.random.default_rng(7)
        data = np.cumsum(rng.standard_normal((12, 2)), axis=0)
        with pytest.raises(SampleTooShort):
            fit_vecm(data, ModelSpec(k=2, r=0, case="none"))

    def test_trend_cases_not_fittable(self):
        rng = np.random.default_rng(8)
        data = np.cumsum(rng.standard_normal((60, 2)), axis=0)
        with pytest.raises(ValueError):
            fit_vecm(data, ModelSpec(k=1, r=1, case="rtrend"))

    def test_collinear_short_run_design_raises(self):
        with pytest.raises(RankDeficient, match=RANK_DEFICIENT_11):
            fit_vecm(trending_price_panel().levels, TRENDING_PRICE_SPEC)

    def test_known_adjustment_coefficients_recovered(self):
        # DGP: dx = alpha * (beta' x_{t-1}) + e with alpha (-0.5, 0), beta (1, -1).
        rng = np.random.default_rng(9)
        alpha = np.array([-0.5, 0.0])
        t = 2000
        x = np.zeros((t, 2))
        for i in range(1, t):
            ect = x[i - 1, 0] - x[i - 1, 1]
            x[i] = x[i - 1] + alpha * ect + rng.standard_normal(2)
        fit = fit_vecm(x, ModelSpec(k=1, r=1, case="none"))
        assert fit.beta[0, 0] == pytest.approx(1.0)
        assert fit.beta[1, 0] == pytest.approx(-1.0, abs=0.1)
        assert fit.alpha[:, 0] == pytest.approx(alpha, abs=0.1)

    def test_full_rank_matches_level_var_ols(self):
        rng = np.random.default_rng(10)
        a1 = np.array([[0.6, 0.1], [0.0, 0.5]])
        t = 400
        x = np.zeros((t, 2))
        for i in range(1, t):
            x[i] = a1 @ x[i - 1] + rng.standard_normal(2)
        fit = fit_vecm(x, ModelSpec(k=1, r=2, case="none"))
        lhs = x[1:]
        xlag = x[:-1]
        a1_hat = np.linalg.lstsq(xlag, lhs, rcond=None)[0].T
        pi_ols = a1_hat - np.eye(2)
        assert np.linalg.norm(fit.pi - pi_ols) < 0.1
        # Residuals should match the unrestricted regression closely.
        ols_resid = lhs - xlag @ a1_hat.T
        assert np.abs(fit.residuals - ols_resid).max() < 1e-6

    def test_pi_invariant_under_beta_scaling(self):
        rng = np.random.default_rng(11)
        x = np.cumsum(rng.standard_normal((200, 2)), axis=0)
        x[:, 1] = x[:, 0] + rng.standard_normal(200)
        fit = fit_vecm(x, ModelSpec(k=2, r=1, case="rconst"))
        from cointegra.johansen import johansen_test

        jres = johansen_test(x, 2, "rconst")
        braw = jres.beta[:, :1]
        s01 = jres.s01
        s11 = jres.s11
        araw = s01 @ braw @ np.linalg.inv(braw.T @ s11 @ braw)
        assert araw @ braw.T == pytest.approx(fit.pi_full, abs=1e-8)

    def test_reuses_given_rank_test(self, monkeypatch):
        from cointegra import vecm
        from cointegra.johansen import johansen_test

        rng = np.random.default_rng(11)
        x = np.cumsum(rng.standard_normal((200, 2)), axis=0)
        x[:, 1] = x[:, 0] + rng.standard_normal(200)
        spec = ModelSpec(k=2, r=1, case="rconst")
        fresh = fit_vecm(x, spec)
        jres = johansen_test(x, 2, "rconst")
        monkeypatch.setattr(vecm, "johansen_test", None)
        reused = fit_vecm(x, spec, jres)
        for name in ("alpha", "beta", "mu", "sigma", "residuals"):
            assert np.array_equal(getattr(reused, name), getattr(fresh, name))

    @pytest.mark.parametrize(
        "k, r, case",
        [(1, 0, "none"), (1, 0, "uconst"), (1, 1, "rconst"), (2, 0, "none"), (3, 2, "uconst"),
         (4, 1, "rconst")],
    )
    def test_regressors_are_the_fit_design(self, k, r, case):
        # [z1·beta, z2] rebuilt from the levels, as the LM test used to do
        # on every call; None when the model has no regressors.
        from cointegra.johansen import _design_blocks

        x = simulate_panel(seed=k + r).levels
        fit = fit_vecm(x, ModelSpec(k=k, r=r, case=case))
        _z0, z1, z2, _t_eff = _design_blocks(x, k, DeterministicCase.parse(case))
        blocks = ([z1 @ fit.beta] if r else []) + ([] if z2 is None else [z2])
        if not blocks:
            assert fit.regressors is None
        else:
            assert np.array_equal(fit.regressors, np.hstack(blocks))

    @pytest.mark.parametrize(
        "k, case, rows",
        [(1, "rconst", 200), (2, "none", 200), (2, "rconst", 199)],
    )
    def test_rejects_mismatched_rank_test(self, k, case, rows):
        from cointegra.johansen import johansen_test

        rng = np.random.default_rng(11)
        x = np.cumsum(rng.standard_normal((200, 2)), axis=0)
        jres = johansen_test(x[:rows], k, case)
        with pytest.raises(ValueError, match="rank test ran at"):
            fit_vecm(x, ModelSpec(k=2, r=1, case="rconst"), jres)


class TestLevelVar:
    def test_k1_random_walk(self):
        mats, intercept = to_level_var(random_walk_fit(n=2, k=1))
        assert len(mats) == 1
        assert np.allclose(mats[0], np.eye(2))
        assert np.allclose(intercept, 0.0)

    def test_k2_pure_short_run(self):
        g = np.array([[0.3, -0.1], [0.2, 0.4]])
        spec = ModelSpec(k=2, r=0, case="none")
        fit = make_fit(np.zeros((2, 0)), np.zeros((2, 0)), [g], np.zeros(2), spec, n=2)
        mats, _ = to_level_var(fit)
        assert np.allclose(mats[0], np.eye(2) + g)
        assert np.allclose(mats[1], -g)

    def test_telescoping_identity(self):
        rng = np.random.default_rng(12)
        for case in ("none", "rconst", "uconst"):
            for k in (1, 2, 3):
                for r in (0, 1, 2):
                    x = np.cumsum(rng.standard_normal((120, 2)), axis=0) + 100.0
                    fit = fit_vecm(x, ModelSpec(k=k, r=r, case=case))
                    mats, _ = to_level_var(fit)
                    total = sum(mats) - np.eye(2)
                    assert total == pytest.approx(fit.pi, abs=1e-12)

    def test_restricted_constant_folds_into_intercept(self):
        rng = np.random.default_rng(13)
        x = np.cumsum(rng.standard_normal((150, 2)), axis=0)
        x[:, 1] = x[:, 0] + rng.standard_normal(150)
        fit = fit_vecm(x, ModelSpec(k=1, r=1, case="rconst"))
        _, intercept = to_level_var(fit)
        expected = fit.alpha @ fit.beta.T[:, 2]
        assert intercept == pytest.approx(expected)


class TestForecast:
    def test_flat_for_random_walk(self):
        fit = random_walk_fit(n=2, k=1)
        last = np.array([[3.0, 7.0]])
        path = forecast(fit, last, 20)
        assert path.shape == (20, 2)
        assert np.all(path == last[0])

    def test_drift_accumulates_linearly(self):
        spec = ModelSpec(k=1, r=0, case="uconst")
        d = np.array([0.5, -0.25])
        fit = make_fit(np.zeros((2, 0)), np.zeros((2, 0)), [], d, spec, n=2)
        path = forecast(fit, np.array([[10.0, 10.0]]), 8)
        for h in range(8):
            assert path[h] == pytest.approx(10.0 + (h + 1) * d)

    def test_horizon_zero_rejected(self):
        with pytest.raises(HorizonZero):
            forecast(random_walk_fit(), np.array([[1.0, 1.0]]), 0)

    def test_dual_representation_identity(self):
        rng = np.random.default_rng(14)
        for trial in range(40):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, 5))
            r = int(rng.integers(0, n + 1))
            case = ("none", "rconst", "uconst")[int(rng.integers(3))]
            rows = n + 1 if case == "rconst" else n
            alpha = rng.uniform(-0.3, 0.0, size=(n, r))
            beta = rng.standard_normal((rows, r))
            gammas = [rng.uniform(-0.2, 0.2, size=(n, n)) for _ in range(k - 1)]
            mu = rng.standard_normal(n) * (case == "uconst")
            spec = ModelSpec(k=k, r=r, case=case)
            fit = VecmFit(
                alpha=alpha,
                beta=beta,
                gammas=gammas,
                mu=np.asarray(mu, dtype=float),
                sigma=np.eye(n),
                residuals=np.zeros((12, n)),
                spec=spec,
                t_eff=12,
            )
            last = rng.standard_normal((k, n)) * 10.0
            lib = forecast(fit, last, 12)
            oracle = vecm_recursion_forecast(fit, last, 12)
            scale = max(1.0, np.abs(oracle).max())
            assert np.abs(lib - oracle).max() <= 1e-8 * scale


def term_by_term_forecast(fit, last_obs, horizon):
    """The level-VAR recursion summed one ``A_i @ x`` at a time, as forecast
    computed it before it became one product per quarter."""
    mats, intercept = to_level_var(fit)
    history = [np.asarray(row, dtype=float) for row in last_obs]
    for _ in range(horizon):
        nxt = intercept.copy()
        for i, a in enumerate(mats):
            nxt = nxt + a @ history[-1 - i]
        history.append(nxt)
    return np.array(history[len(last_obs) :])


class TestForecastProduct:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", ["rconst", "uconst"])
    def test_matches_term_by_term_recursion(self, k, case):
        panel = simulate_panel(seed=k)
        fit = fit_vecm(panel.levels, ModelSpec(k=k, r=1, case=case))
        last = panel.levels[-k:]
        path = forecast(fit, last, 200)
        assert path.shape == (200, 5)
        assert path.flags.c_contiguous
        np.testing.assert_allclose(path, term_by_term_forecast(fit, last, 200), rtol=1e-12, atol=0)

    def test_horizon_checked_before_shape(self):
        fit = random_walk_fit(n=2, k=2)
        with pytest.raises(HorizonZero):
            forecast(fit, np.ones((3, 2)), 0)

    @pytest.mark.parametrize("shape", [(1, 2), (3, 2), (2, 3)])
    def test_wrong_number_of_observations_rejected(self, shape):
        with pytest.raises(ValueError, match="need the last 2 level vectors"):
            forecast(random_walk_fit(n=2, k=2), np.ones(shape), 4)


class TestIrf:
    def test_unit_response_for_white_noise_differences(self):
        fit = random_walk_fit(n=3, k=1)
        out = irf(fit, 5)
        assert out.shape == (6, 3, 3)
        for theta in out:
            assert np.allclose(theta, np.eye(3))

    def test_scalar_ar1_geometric_decay(self):
        spec = ModelSpec(k=1, r=1, case="none")
        sigma = np.array([[4.0]])
        fit = make_fit(
            np.array([[-0.5]]), np.array([[1.0]]), [], np.zeros(1), spec, n=1, sigma=sigma
        )
        out = irf(fit, 6)
        for h, theta in enumerate(out):
            assert theta[0, 0] == pytest.approx(0.5**h * 2.0)

    def test_theta0_is_cholesky_factor(self):
        rng = np.random.default_rng(15)
        x = np.cumsum(rng.standard_normal((100, 2)), axis=0) + 30.0
        fit = fit_vecm(x, ModelSpec(k=2, r=1, case="rconst"))
        out = irf(fit, 4)
        from cointegra.linalg import cholesky

        assert np.array_equal(out[0], cholesky(fit.sigma))
        assert np.allclose(np.triu(out[0], 1), 0.0)

    @pytest.mark.parametrize("horizons", [0, 1, 200])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_equals_the_full_companion_power(self, k, horizons):
        from cointegra.linalg import cholesky

        def full_power_irf(fit, horizons):
            # Every step multiplies the whole nk x nk companion power.
            p = cholesky(fit.sigma)
            top, _ = _companion_top(fit)
            n, nk = top.shape
            companion = np.vstack([top, np.eye(nk - n, nk)])
            responses = np.empty((horizons + 1, n, n))
            responses[0] = p
            power = np.eye(nk)
            for h in range(1, horizons + 1):
                power = companion @ power
                responses[h] = power[:n, :n] @ p
            return responses

        panels = os.path.join(os.path.dirname(__file__), "..", "data", "sixstate", "panels")
        for name in ("AL_113", "ME_321", "WI_322"):
            levels = ingest_panel(os.path.join(panels, f"{name}.csv")).levels
            fit = fit_vecm(levels, ModelSpec(k=k, r=2, case="rconst"))
            assert np.array_equal(irf(fit, horizons), full_power_irf(fit, horizons)), name


class TestBacktest:
    def constant_panel(self, train_level=110.0, holdout_level=100.0):
        values = np.concatenate([np.full(40, train_level), np.full(4, holdout_level)])
        levels = np.repeat(values[:, None], len(VARIABLES), axis=1)
        return PanelDataset("AL", 113, QuarterDate(2001, 1), levels)

    def test_hand_metrics(self):
        panel = self.constant_panel()
        rmse, mape = backtest(panel, ModelSpec(k=1, r=0, case="none"), QuarterDate(2011, 1))
        assert rmse.shape == mape.shape == (len(VARIABLES),)
        assert rmse == pytest.approx(np.full(5, 10.0))
        assert mape == pytest.approx(np.full(5, 0.10))

    def test_linear_trend_panel_reproduced_exactly(self):
        # Each variable grows by a fixed step per quarter, so a drift-only fit
        # recovers the step exactly and the holdout path is matched. Any
        # off-by-one in the forecast origin would leave a full step of error.
        steps = np.array([1.0, 0.5, 2.0, 0.25, 0.01])
        t = np.arange(60.0)
        panel = PanelDataset("AL", 113, QuarterDate(2001, 1), 100.0 + steps * t[:, None])
        rmse, _ = backtest(panel, ModelSpec(k=1, r=0, case="uconst"), QuarterDate(2014, 1))
        assert np.all(rmse < 1e-9)

    def test_collinear_short_run_design_raises(self):
        with pytest.raises(RankDeficient, match=RANK_DEFICIENT_11):
            backtest(trending_price_panel(), TRENDING_PRICE_SPEC, QuarterDate(2015, 1))

    def test_holdout_after_end_rejected(self):
        panel = self.constant_panel()
        with pytest.raises(HoldoutOutOfRange):
            backtest(panel, ModelSpec(k=1, r=0, case="none"), QuarterDate(2030, 1))

    def test_holdout_at_start_rejected(self):
        panel = self.constant_panel()
        with pytest.raises(HoldoutOutOfRange):
            backtest(panel, ModelSpec(k=1, r=0, case="none"), QuarterDate(2001, 1))

    def test_scores_equal_a_loop_over_variables(self):
        # Ten holdout quarters; each score is bitwise the mean over one
        # variable's errors, as a per-column loop takes it.
        panel = simulate_panel(seed=21, length=70)
        spec = ModelSpec(k=2, r=1, case="rconst")
        rmse, mape = backtest(panel, spec, QuarterDate(2016, 1))
        train, actuals = panel.levels[:60], panel.levels[60:]
        path = forecast(fit_vecm(train, spec), train[-2:], 10)
        for j in range(len(VARIABLES)):
            err = path[:, j] - actuals[:, j]
            assert rmse[j] == np.sqrt(np.mean(err**2))
            assert mape[j] == np.mean(np.abs(err) / np.abs(actuals[:, j]))
        assert np.isfinite(rmse).all() and np.isfinite(mape).all()
