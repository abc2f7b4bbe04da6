import numpy as np
import pytest

from cointegra.errors import ConstantSeries, SampleTooShort
from cointegra.unitroot import adf_test


def df_tstat_oracle(values, deterministic):
    """Plain OLS Dickey-Fuller t-ratio with no lag augmentation."""
    dy = np.diff(values)
    t = dy.size
    cols = [values[:-1]]
    if deterministic in ("constant", "constantTrend"):
        cols.append(np.ones(t))
    if deterministic == "constantTrend":
        cols.append(np.arange(1.0, t + 1.0))
    x = np.column_stack(cols)
    b = np.linalg.solve(x.T @ x, x.T @ dy)
    resid = dy - x @ b
    s2 = resid @ resid / (t - x.shape[1])
    se = np.sqrt(s2 * np.linalg.inv(x.T @ x)[0, 0])
    return b[0] / se


class TestAdfBasics:
    def test_constant_series_rejected(self):
        with pytest.raises(ConstantSeries):
            adf_test(np.full(40, 7.0), 1)

    def test_short_sample_rejected(self):
        with pytest.raises(SampleTooShort):
            adf_test(np.arange(10.0), 4)

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            adf_test(np.random.default_rng(0).standard_normal(50), 1, "drift")

    def test_lag_zero_matches_direct_regression(self):
        rng = np.random.default_rng(14)
        for case in ("none", "constant", "constantTrend"):
            for _ in range(5):
                y = np.cumsum(rng.standard_normal(80))
                res = adf_test(y, 0, case)
                assert res.statistic == pytest.approx(df_tstat_oracle(y, case), abs=1e-10)

    def test_result_fields_consistent(self):
        rng = np.random.default_rng(3)
        y = np.cumsum(rng.standard_normal(120))
        res = adf_test(y, 2, "constant")
        assert res.lag_order == 2
        assert res.deterministic == "constant"
        cv = res.critical_values
        assert cv[0.01] < cv[0.05] < cv[0.10] < 0
        assert res.reject_at_5pct == (res.statistic < cv[0.05])


class TestCriticalValues:
    def test_constant_case_surface_at_t100(self):
        # -2.86154 - 2.8903/100 - 4.234/100^2 - 40.04/100^3 computed by hand
        rng = np.random.default_rng(8)
        y = np.cumsum(rng.standard_normal(102))
        res = adf_test(y, 0, "constant")  # effective sample 101 rows minus one
        t_eff = 101
        expected = -2.86154 - 2.8903 / t_eff - 4.234 / t_eff**2 - 40.04 / t_eff**3
        assert res.critical_values[0.05] == pytest.approx(expected, abs=1e-12)

    def test_no_deterministics_asymptote(self):
        rng = np.random.default_rng(8)
        y = np.cumsum(rng.standard_normal(5000))
        res = adf_test(y, 0, "none")
        assert res.critical_values[0.05] == pytest.approx(-1.941, abs=5e-4)


class TestInvariances:
    def test_offset_invariance_with_constant(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            y = np.cumsum(rng.standard_normal(90))
            base = adf_test(y, 2, "constant").statistic
            shifted = adf_test(y + 1000.0, 2, "constant").statistic
            assert shifted == pytest.approx(base, abs=1e-7)

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        for case in ("none", "constant", "constantTrend"):
            y = np.cumsum(rng.standard_normal(90))
            base = adf_test(y, 1, case).statistic
            scaled = adf_test(y * 250.0, 1, case).statistic
            assert scaled == pytest.approx(base, abs=1e-8)


class TestSizeAndPower:
    def test_random_walk_rarely_rejected(self):
        rng = np.random.default_rng(101)
        rejections = sum(
            adf_test(np.cumsum(rng.standard_normal(200)), 1, "constant").reject_at_5pct
            for _ in range(150)
        )
        assert rejections / 150 <= 0.12

    def test_white_noise_usually_rejected(self):
        rng = np.random.default_rng(103)
        rejections = sum(
            adf_test(rng.standard_normal(200), 1, "constant").reject_at_5pct
            for _ in range(150)
        )
        assert rejections / 150 >= 0.93
