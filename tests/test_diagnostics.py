import math

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import chi2, kurtosis, skew

from cointegra.diagnostics import lm_autocorrelation, normality_tests
from cointegra.errors import NumericalFailure, SampleTooShort, SingularCovariance
from cointegra.panel import VARIABLES, PanelDataset
from cointegra.quarters import QuarterDate, QuarterlySeries
from cointegra.vecm import ModelSpec, VecmFit, fit_vecm


def residual_fit(e, sigma=None, case="none"):
    """Wrap raw residuals in a drift-free rank-zero fit.

    With k = 1, r = 0, and no deterministic term the model has no
    regressors, so the diagnostics operate on the residual matrix alone.
    """
    e = np.asarray(e, dtype=float)
    t_eff, n = e.shape
    if sigma is None:
        sigma = e.T @ e / t_eff
    return VecmFit(
        alpha=np.zeros((n, 0)),
        beta=np.zeros((n, 0)),
        gammas=[],
        mu=np.zeros(n),
        sigma=np.asarray(sigma, dtype=float),
        residuals=e,
        spec=ModelSpec(k=1, r=0, case=case),
        t_eff=t_eff,
        source_levels=np.zeros((t_eff + 1, n)),
    )


def cointegrated_fit(seed=3, t=160):
    rng = np.random.default_rng(seed)
    x = np.zeros((t, 2))
    x[:, 0] = np.cumsum(rng.standard_normal(t))
    x[:, 1] = x[:, 0] + rng.standard_normal(t)
    return fit_vecm(x + 100.0, ModelSpec(k=2, r=1, case="rconst"))


class TestLmAutocorrelation:
    def test_zero_lags_empty(self):
        fit = residual_fit(np.random.default_rng(0).standard_normal((40, 2)))
        assert lm_autocorrelation(fit, 0) == []

    def test_negative_lags_rejected(self):
        fit = residual_fit(np.random.default_rng(0).standard_normal((40, 2)))
        with pytest.raises(ValueError):
            lm_autocorrelation(fit, -1)

    def test_short_sample(self):
        fit = residual_fit(np.random.default_rng(0).standard_normal((8, 2)))
        with pytest.raises(SampleTooShort):
            lm_autocorrelation(fit, 4)

    def test_univariate_hand_recomputation(self):
        rng = np.random.default_rng(1)
        e = rng.standard_normal((50, 1))
        fit = residual_fit(e)
        results = lm_autocorrelation(fit, 3)
        t = 50
        var_base = float(e[:, 0] @ e[:, 0]) / t
        for j, res in zip(range(1, 4), results):
            lagged = np.zeros(t)
            lagged[j:] = e[:-j, 0]
            b = float(lagged @ e[:, 0]) / float(lagged @ lagged)
            resid = e[:, 0] - b * lagged
            var_aux = float(resid @ resid) / t
            expected = (t - j - 0.5) * (math.log(var_base) - math.log(var_aux))
            assert res.lag == j
            assert res.dof == 1
            assert res.statistic == pytest.approx(expected, abs=1e-10)
            assert res.pvalue == pytest.approx(chi2.sf(expected, 1), abs=1e-12)

    def test_multivariate_hand_recomputation(self):
        rng = np.random.default_rng(2)
        e = rng.standard_normal((80, 2))
        fit = residual_fit(e)
        res = lm_autocorrelation(fit, 2)[1]
        t, n, j = 80, 2, 2
        lagged = np.zeros_like(e)
        lagged[j:] = e[:-j]
        coef, *_ = scipy.linalg.lstsq(lagged, e)
        resid = e - lagged @ coef
        ld_aux = float(np.linalg.slogdet(resid.T @ resid / t)[1])
        ld_base = float(np.linalg.slogdet(e.T @ e / t)[1])
        expected = -(t - n * j - 0.5) * (ld_aux - ld_base)
        assert res.statistic == pytest.approx(expected, abs=1e-10)

    def test_autocorrelated_residuals_detected(self):
        rng = np.random.default_rng(4)
        t, n = 300, 2
        e = np.zeros((t, n))
        shocks = rng.standard_normal((t, n))
        for i in range(1, t):
            e[i] = 0.8 * e[i - 1] + shocks[i]
        fit = residual_fit(e)
        res = lm_autocorrelation(fit, 2)
        assert res[0].pvalue < 1e-6
        assert res[0].statistic > res[1].statistic * 0.1

    def test_white_noise_rejection_rate(self):
        reject = 0
        trials = 200
        for seed in range(trials):
            rng = np.random.default_rng(1000 + seed)
            fit = residual_fit(rng.standard_normal((200, 2)))
            if lm_autocorrelation(fit, 1)[0].pvalue < 0.05:
                reject += 1
        assert 0.01 <= reject / trials <= 0.10

    def test_fitted_model_regressor_path(self):
        fit = cointegrated_fit()
        results = lm_autocorrelation(fit, 4)
        assert [r.lag for r in results] == [1, 2, 3, 4]
        for r in results:
            assert r.dof == 4
            assert r.statistic >= 0.0
            assert 0.0 <= r.pvalue <= 1.0


class TestNormality:
    def test_short_sample(self):
        with pytest.raises(SampleTooShort):
            normality_tests(residual_fit(np.ones((5, 2)) + np.eye(5, 2)))

    def test_singular_sigma(self):
        e = np.random.default_rng(5).standard_normal((40, 2))
        fit = residual_fit(e, sigma=np.ones((2, 2)))
        with pytest.raises(SingularCovariance):
            normality_tests(fit)

    def test_mismatched_sigma_fails_orthogonality_check(self):
        rng = np.random.default_rng(6)
        base = rng.standard_normal(60)
        e = np.column_stack([base, base + 0.01 * rng.standard_normal(60)])
        fit = residual_fit(e, sigma=np.eye(2))
        with pytest.raises(NumericalFailure):
            normality_tests(fit)

    def test_moments_match_scipy(self):
        rng = np.random.default_rng(7)
        e = rng.standard_normal((150, 3)) @ np.array(
            [[1.0, 0.0, 0.0], [0.4, 0.9, 0.0], [-0.2, 0.3, 1.1]]
        )
        fit = residual_fit(e)
        report = normality_tests(fit)
        p = np.linalg.cholesky(fit.sigma)
        u = e @ np.linalg.inv(p).T
        for j, eq in enumerate(report.per_equation):
            assert eq.skew == pytest.approx(skew(u[:, j], bias=True), abs=1e-10)
            assert eq.kurtosis == pytest.approx(
                kurtosis(u[:, j], fisher=False, bias=True), abs=1e-10
            )

    def test_statistic_formulas(self):
        rng = np.random.default_rng(8)
        e = rng.standard_normal((120, 2))
        report = normality_tests(residual_fit(e))
        t = 120
        for eq in report.per_equation:
            assert eq.skew_test.stat == pytest.approx(t * eq.skew**2 / 6.0)
            assert eq.kurtosis_test.stat == pytest.approx(t * (eq.kurtosis - 3.0) ** 2 / 24.0)
            assert eq.jb.stat == pytest.approx(eq.skew_test.stat + eq.kurtosis_test.stat)
            assert (eq.skew_test.dof, eq.kurtosis_test.dof, eq.jb.dof) == (1, 1, 2)

    def test_joint_rows_are_sums(self):
        rng = np.random.default_rng(9)
        e = rng.standard_normal((200, 5))
        report = normality_tests(residual_fit(e))
        assert report.joint_skew.stat == pytest.approx(
            math.fsum(eq.skew_test.stat for eq in report.per_equation), abs=1e-9
        )
        assert report.joint_kurtosis.stat == pytest.approx(
            math.fsum(eq.kurtosis_test.stat for eq in report.per_equation), abs=1e-9
        )
        assert report.joint_jb.stat == pytest.approx(
            math.fsum(eq.jb.stat for eq in report.per_equation), abs=1e-9
        )
        assert report.joint_skew.dof == 5
        assert report.joint_kurtosis.dof == 5
        assert report.joint_jb.dof == 10

    def test_equation_names(self):
        rng = np.random.default_rng(10)
        five = normality_tests(residual_fit(rng.standard_normal((80, 5))))
        assert [eq.equation for eq in five.per_equation] == [
            f"D_{name}" for name in VARIABLES
        ]
        two = normality_tests(residual_fit(rng.standard_normal((80, 2))))
        assert [eq.equation for eq in two.per_equation] == ["D_var1", "D_var2"]

    def test_gaussian_residuals_accepted(self):
        rng = np.random.default_rng(11)
        report = normality_tests(residual_fit(rng.standard_normal((500, 3))))
        assert report.joint_jb.pvalue > 0.01

    def test_skewed_residuals_rejected(self):
        rng = np.random.default_rng(12)
        e = rng.chisquare(3, size=(400, 2)) - 3.0
        report = normality_tests(residual_fit(e))
        assert report.joint_jb.pvalue < 1e-8
        assert all(eq.skew > 0.5 for eq in report.per_equation)

    def test_jb_rejection_rate_gaussian(self):
        reject = 0
        trials = 200
        for seed in range(trials):
            rng = np.random.default_rng(4000 + seed)
            report = normality_tests(residual_fit(rng.standard_normal((200, 2))))
            if report.joint_jb.pvalue < 0.05:
                reject += 1
        assert 0.01 <= reject / trials <= 0.10

    def test_fitted_model_names_panel_variables(self):
        rng = np.random.default_rng(13)
        base = np.cumsum(rng.standard_normal(90)) * 0.05
        series = {}
        for name in VARIABLES:
            noise = np.cumsum(rng.standard_normal(90)) * 0.02
            series[name] = QuarterlySeries(
                QuarterDate(2001, 1), 100.0 * np.exp(base + noise)
            )
        panel = PanelDataset(state="ME", naics=113, **series)
        fit = fit_vecm(panel.matrix(), ModelSpec(k=2, r=1, case="rconst"))
        report = normality_tests(fit)
        assert report.per_equation[0].equation == "D_output"
        assert report.joint_jb.dof == 10
