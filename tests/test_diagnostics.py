import math

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import chi2, kurtosis, skew

from cointegra.diagnostics import _original_regressors, lm_autocorrelation, normality_tests
from cointegra.errors import NumericalFailure, SampleTooShort, SingularCovariance
from cointegra.linalg import cholesky, lstsq, solve_triangular
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


def lm_loop(fit, max_lag):
    """(statistic, p-value) per lag from one ``lstsq`` fit per lag plus the
    base fit: the loop ``lm_autocorrelation`` replaced, kept as its
    reference."""
    e = fit.residuals
    t_eff, n = e.shape
    base = _original_regressors(fit)

    def log_det(x):
        resid = e if x is None else e - x @ lstsq(x, e)
        return float(np.linalg.slogdet(resid.T @ resid / t_eff)[1])

    log_det_base = log_det(base)
    out = []
    for j in range(1, max_lag + 1):
        lagged = np.zeros_like(e)
        lagged[j:] = e[:-j]
        aux = lagged if base is None else np.hstack([base, lagged])
        stat = max(-(t_eff - n * j - 0.5) * (log_det(aux) - log_det_base), 0.0)
        out.append((stat, chi2.sf(stat, n * n)))
    return np.array(out)


def moments_loop(fit):
    """(skew, kurtosis) per equation from a loop over the orthogonalized
    residual columns: the loop ``normality_tests`` replaced."""
    e = fit.residuals
    u = solve_triangular(cholesky(fit.sigma), e.T, lower=True).T
    out = []
    for j in range(e.shape[1]):
        col = u[:, j]
        centered = col - col.mean()
        m2 = float(np.mean(centered**2))
        m3 = float(np.mean(centered**3))
        m4 = float(np.mean(centered**4))
        out.append((m3 / m2**1.5, m4 / m2**2))
    return out


def system_fit(k, r, case, seed=17, t=72):
    """A five-variable model: four random walks and a fifth cointegrated
    with the first, at the sample length the pipeline runs."""
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal((t, 5)), axis=0)
    x[:, 4] = 0.5 * x[:, 0] + rng.standard_normal(t)
    return fit_vecm(x + 100.0, ModelSpec(k=k, r=r, case=case))


PARITY_FITS = {
    # k = 1, r = 0 and no deterministic term: no base regressors at all.
    "k1-r0-none": lambda: residual_fit(np.random.default_rng(21).standard_normal((60, 5))),
    "k1-r0-none-n1": lambda: residual_fit(np.random.default_rng(22).standard_normal((50, 1))),
    "k2-r1-rconst-n2": cointegrated_fit,
    "k1-r1-rconst": lambda: system_fit(1, 1, "rconst"),
    "k3-r0-uconst": lambda: system_fit(3, 0, "uconst"),
    "k4-r2-uconst": lambda: system_fit(4, 2, "uconst"),
    "k2-r1-none": lambda: system_fit(2, 1, "none"),
}


class TestOneFactorization:
    @pytest.mark.parametrize("max_lag", [1, 2, 4])
    @pytest.mark.parametrize("name", sorted(PARITY_FITS))
    def test_lm_matches_per_lag_fits(self, name, max_lag):
        fit = PARITY_FITS[name]()
        got = [(res.statistic, res.pvalue) for res in lm_autocorrelation(fit, max_lag)]
        np.testing.assert_allclose(got, lm_loop(fit, max_lag), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name", sorted(PARITY_FITS))
    def test_normality_moments_equal_the_column_loop(self, name):
        fit = PARITY_FITS[name]()
        got = [(eq.skew, eq.kurtosis) for eq in normality_tests(fit).per_equation]
        assert got == moments_loop(fit)

    def test_collinear_residuals_are_singular(self):
        # Exactly collinear columns: the base residual covariance, and
        # every auxiliary one, has rank one.
        e = np.random.default_rng(23).standard_normal((60, 1)) @ np.array([[1.0, -2.0, 0.5]])
        with pytest.raises(SingularCovariance, match="residual covariance is singular"):
            lm_autocorrelation(residual_fit(e), 4)

    def test_collinear_residuals_of_a_fitted_model_are_singular(self):
        fit = system_fit(2, 1, "rconst")
        fit.residuals[:, 3] = 2.0 * fit.residuals[:, 1] - fit.residuals[:, 0]
        with pytest.raises(SingularCovariance, match="residual covariance is singular"):
            lm_autocorrelation(fit, 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_auxiliary_regression_without_spare_rows_is_singular(self, seed):
        # 5 rows, 3 equations, lag 1: the auxiliary regression has 3
        # regressors, so its residual has rank 2 at most. A per-lag fit
        # turned the rounding noise of that singular covariance into a
        # statistic for some draws.
        e = np.random.default_rng(seed).standard_normal((5, 3))
        with pytest.raises(SingularCovariance, match="residual covariance is singular"):
            lm_autocorrelation(residual_fit(e), 1)
