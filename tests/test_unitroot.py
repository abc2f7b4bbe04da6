import numpy as np
import pytest

from cointegra.errors import ConstantSeries, RankDeficient, SampleTooShort
from cointegra.linalg import ols
from cointegra.panel import VARIABLES
from cointegra.unitroot import _critical_values, adf_test, adf_tests


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
                stat, _cv = adf_test(y, 0, case)
                assert stat == pytest.approx(df_tstat_oracle(y, case), abs=1e-10)

    def test_result_fields_consistent(self):
        rng = np.random.default_rng(3)
        y = np.cumsum(rng.standard_normal(120))
        stat, cv = adf_test(y, 2, "constant")
        assert isinstance(stat, float)
        # The values of the constant case at the effective sample of lag 2.
        assert cv == _critical_values("constant", 120 - 1 - 2)
        assert cv[0.01] < cv[0.05] < cv[0.10] < 0
        stats, cvs = adf_tests(y[:, None], 2, "constant")
        assert (stats.tolist(), cvs) == ([stat], cv)


class TestCriticalValues:
    def test_constant_case_surface_at_t100(self):
        # -2.86154 - 2.8903/100 - 4.234/100^2 - 40.04/100^3 computed by hand
        rng = np.random.default_rng(8)
        y = np.cumsum(rng.standard_normal(102))
        _stat, cv = adf_test(y, 0, "constant")  # effective sample 101 rows minus one
        t_eff = 101
        expected = -2.86154 - 2.8903 / t_eff - 4.234 / t_eff**2 - 40.04 / t_eff**3
        assert cv[0.05] == pytest.approx(expected, abs=1e-12)

    def test_no_deterministics_asymptote(self):
        rng = np.random.default_rng(8)
        y = np.cumsum(rng.standard_normal(5000))
        _stat, cv = adf_test(y, 0, "none")
        assert cv[0.05] == pytest.approx(-1.941, abs=5e-4)


class TestInvariances:
    def test_offset_invariance_with_constant(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            y = np.cumsum(rng.standard_normal(90))
            base = adf_test(y, 2, "constant")[0]
            shifted = adf_test(y + 1000.0, 2, "constant")[0]
            assert shifted == pytest.approx(base, abs=1e-7)

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        for case in ("none", "constant", "constantTrend"):
            y = np.cumsum(rng.standard_normal(90))
            base = adf_test(y, 1, case)[0]
            scaled = adf_test(y * 250.0, 1, case)[0]
            assert scaled == pytest.approx(base, abs=1e-8)


def rejects_at_5pct(y, lag_order, deterministic):
    stat, cv = adf_test(y, lag_order, deterministic)
    return stat < cv[0.05]


class TestSizeAndPower:
    def test_random_walk_rarely_rejected(self):
        rng = np.random.default_rng(101)
        rejections = sum(
            rejects_at_5pct(np.cumsum(rng.standard_normal(200)), 1, "constant")
            for _ in range(150)
        )
        assert rejections / 150 <= 0.12

    def test_white_noise_usually_rejected(self):
        rng = np.random.default_rng(103)
        rejections = sum(
            rejects_at_5pct(rng.standard_normal(200), 1, "constant")
            for _ in range(150)
        )
        assert rejections / 150 >= 0.93


def adf_loop(y, lag_order, deterministic):
    """The ADF statistic of each column of ``y``, one ``ols`` fit and one
    explicit ``(X'X)⁻¹`` per series: the per-series loop ``adf_tests``
    replaced, kept as its reference."""
    stats = []
    for values in np.asarray(y, dtype=float).T:
        dy = np.diff(values)
        lhs = dy[lag_order:]
        t_eff = lhs.size
        cols = [values[lag_order:-1]]
        for i in range(1, lag_order + 1):
            cols.append(dy[lag_order - i : dy.size - i])
        if deterministic in ("constant", "constantTrend"):
            cols.append(np.ones(t_eff))
        if deterministic == "constantTrend":
            cols.append(np.arange(1.0, t_eff + 1.0))
        x = np.column_stack(cols)
        coef, resid = ols(x, lhs)
        s2 = float(resid @ resid) / (t_eff - x.shape[1])
        se_rho = np.sqrt(s2 * np.linalg.inv(x.T @ x)[0, 0])
        stats.append(float(coef[0] / se_rho))
    return np.array(stats)


def walks(t, m, seed):
    return np.cumsum(np.random.default_rng(seed).standard_normal((t, m)), axis=0)


CASES = ("none", "constant", "constantTrend")


class TestOneFactorization:
    @pytest.mark.parametrize("m", [1, 5])
    @pytest.mark.parametrize("deterministic", CASES)
    @pytest.mark.parametrize("lag", range(5))
    def test_matches_per_series_loop(self, lag, deterministic, m):
        # The statistics are O(1) and the reference's own rounding reaches
        # a few 1e-13 in absolute terms, so near-zero statistics are
        # compared with an absolute floor.
        for seed in range(4):
            y = walks(56 + 4 * seed, m, seed)
            got = adf_tests(y, lag, deterministic)[0]
            np.testing.assert_allclose(
                got, adf_loop(y, lag, deterministic), rtol=1e-12, atol=1e-12
            )
            if m == 1:
                assert adf_test(y[:, 0], lag, deterministic)[0] == got[0]

    @pytest.mark.parametrize("deterministic", ["constant", "constantTrend"])
    def test_accurate_when_the_level_is_far_from_zero(self, deterministic):
        # y = 1000 + 1e-3·walk makes cond(X) about 1e6. The explicit
        # (X'X)⁻¹ squares that and loses about 1e-4 relative; the QR path
        # loses about eps·cond(X). With a constant in the regression,
        # subtracting the mean leaves the statistic unchanged and the
        # centered design well conditioned, so it gives the reference.
        y = 1000.0 + 1e-3 * walks(64, 5, 5)
        for lag in range(5):
            got = adf_tests(y, lag, deterministic)[0]
            want = adf_loop(y - y.mean(axis=0), lag, deterministic)
            np.testing.assert_allclose(got, want, rtol=1e-8)


class TestDegenerateColumns:
    @staticmethod
    def panel_like(**columns):
        """Five random walks, with the named columns replaced."""
        y = walks(64, 5, 11) + 50.0
        t = np.arange(64.0)
        for name, kind in columns.items():
            y[:, VARIABLES.index(name)] = {"constant": 1.5, "trend": 0.5 + 0.01 * t}[kind]
        return y

    def test_constant_column(self):
        with pytest.raises(ConstantSeries, match=r"^series has zero variance in 'price'$"):
            adf_tests(self.panel_like(price="constant"), 4, "constant", VARIABLES)

    @pytest.mark.parametrize("deterministic, columns", [("constant", 6), ("constantTrend", 7)])
    def test_linear_trend_column(self, deterministic, columns):
        message = rf"^design matrix rank-deficient \({columns} columns\) in 'wages'$"
        with pytest.raises(RankDeficient, match=message):
            adf_tests(self.panel_like(wages="trend"), 4, deterministic, VARIABLES)

    def test_unnamed_columns_keep_the_plain_message(self):
        with pytest.raises(ConstantSeries, match=r"^series has zero variance$"):
            adf_tests(self.panel_like(price="constant"), 4)

    @pytest.mark.parametrize(
        "columns, error, name",
        [
            ({"employment": "trend", "price": "constant"}, RankDeficient, "employment"),
            ({"employment": "constant", "price": "trend"}, ConstantSeries, "employment"),
            ({"price": "constant", "num_firms": "trend"}, RankDeficient, "num_firms"),
        ],
    )
    def test_first_failing_column_decides(self, columns, error, name):
        with pytest.raises(error, match=f"in '{name}'$"):
            adf_tests(self.panel_like(**columns), 4, "constant", VARIABLES)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_is_a_value_error(self, bad):
        y = walks(40, 1, 3)[:, 0]
        y[17] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            adf_test(y, 1)

    def test_too_few_rows_for_the_regressors(self):
        # 16 observations at lag 6 leave 9 rows for 9 regressors.
        with pytest.raises(RankDeficient, match=r"need more rows than regressors, got 9x9"):
            adf_test(walks(16, 1, 2)[:, 0], 6, "constantTrend")
