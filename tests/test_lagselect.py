import math

import numpy as np
import pytest

from cointegra.errors import SampleTooShort
from cointegra.lagselect import select_lags
from cointegra.panel import VARIABLES, PanelDataset
from cointegra.quarters import QuarterDate, QuarterlySeries


def simulate_var(coefs, t, rng, burn=50):
    """Simulate a zero-mean VAR given list of lag coefficient matrices."""
    n = coefs[0].shape[0] if coefs else rng.standard_normal((1, 1)).shape[0]
    p = len(coefs)
    x = np.zeros((t + burn, n))
    for i in range(p, t + burn):
        acc = rng.standard_normal(n)
        for j, a in enumerate(coefs):
            acc = acc + a @ x[i - 1 - j]
        x[i] = acc
    return x[burn:]


class TestPreconditions:
    def test_six_observation_panel_rejected(self):
        series = {
            name: QuarterlySeries(QuarterDate(2001, 1), np.arange(1.0, 7.0))
            for name in VARIABLES
        }
        panel = PanelDataset(state="AL", naics=113, **series)
        with pytest.raises(SampleTooShort):
            select_lags(panel.matrix(), 1)

    def test_negative_max_lag_rejected(self):
        with pytest.raises(ValueError):
            select_lags(np.random.default_rng(0).standard_normal((50, 2)), -1)


class TestCriteriaAlgebra:
    def setup_method(self):
        rng = np.random.default_rng(55)
        self.data = simulate_var([np.array([[0.5, 0.1], [0.0, 0.4]])], 300, rng)
        self.sel = select_lags(self.data, 4)

    def test_common_sample_covers_all_lags(self):
        assert [r.lag for r in self.sel.per_lag] == [0, 1, 2, 3, 4]

    def test_log_det_non_increasing(self):
        lds = [r.log_det_sigma for r in self.sel.per_lag]
        assert all(b <= a + 1e-10 for a, b in zip(lds, lds[1:]))

    def test_log_lik_non_decreasing(self):
        lls = [r.log_lik for r in self.sel.per_lag]
        assert all(b >= a - 1e-8 for a, b in zip(lls, lls[1:]))

    def test_aic_recomputation(self):
        # AIC reduces to n*ln(2pi) + log|Sigma| + n + 2m/T on the common sample.
        n = 2
        t_eff = 300 - 4
        for r in self.sel.per_lag:
            m = n * (n * r.lag + 1)
            expected = n * math.log(2 * math.pi) + r.log_det_sigma + n + 2 * m / t_eff
            assert r.aic == pytest.approx(expected, rel=1e-12)

    def test_sbic_hqic_penalties(self):
        n = 2
        t_eff = 296
        for r in self.sel.per_lag:
            m = n * (n * r.lag + 1)
            assert r.sbic - r.aic == pytest.approx(
                (math.log(t_eff) - 2.0) * m / t_eff, rel=1e-10
            )
            assert r.hqic - r.aic == pytest.approx(
                2.0 * (math.log(math.log(t_eff)) - 1.0) * m / t_eff, rel=1e-10
            )

    def test_fpe_recomputation(self):
        n = 2
        t_eff = 296
        for r in self.sel.per_lag:
            s = n * r.lag + 1
            expected = math.exp(r.log_det_sigma) * ((t_eff + s) / (t_eff - s)) ** n
            assert r.fpe == pytest.approx(expected, rel=1e-12)

    def test_lr_statistics(self):
        n = 2
        t_eff = 296
        assert self.sel.per_lag[0].lr_statistic is None
        for p in range(1, 5):
            s = n * p + 1
            expected = (t_eff - s) * (
                self.sel.per_lag[p - 1].log_det_sigma - self.sel.per_lag[p].log_det_sigma
            )
            assert self.sel.per_lag[p].lr_statistic == pytest.approx(max(expected, 0.0))
            assert self.sel.per_lag[p].lr_statistic >= 0.0
            assert 0.0 <= self.sel.per_lag[p].lr_pvalue <= 1.0

    def test_chosen_match_argmin(self):
        by_aic = min(self.sel.per_lag, key=lambda r: r.aic).lag
        by_fpe = min(self.sel.per_lag, key=lambda r: r.fpe).lag
        assert self.sel.chosen["byAic"] == by_aic
        assert self.sel.chosen["byFpe"] == by_fpe

    def test_by_lr_scans_from_top(self):
        expected = 0
        for p in range(4, 0, -1):
            if self.sel.per_lag[p].lr_pvalue < 0.05:
                expected = p
                break
        assert self.sel.chosen["byLr"] == expected


class TestScaleInvariance:
    def test_rescaling_one_variable_keeps_choices(self):
        rng = np.random.default_rng(77)
        data = simulate_var([np.array([[0.4, 0.0], [0.1, 0.3]])], 250, rng)
        base = select_lags(data, 4)
        scaled_data = data.copy()
        scaled_data[:, 1] *= 1000.0
        scaled = select_lags(scaled_data, 4)
        assert scaled.chosen == base.chosen
        base_diffs = np.diff([r.aic for r in base.per_lag])
        scaled_diffs = np.diff([r.aic for r in scaled.per_lag])
        assert scaled_diffs == pytest.approx(base_diffs, abs=1e-8)


class TestOrderRecovery:
    def test_white_noise_prefers_lag_zero(self):
        # System dimension 5; each extra lag costs 25 parameters, so AIC
        # overfits white noise only rarely.
        rng = np.random.default_rng(202)
        hits = sum(
            select_lags(rng.standard_normal((400, 5)), 4).chosen["byAic"] == 0
            for _ in range(200)
        )
        assert hits / 200 >= 0.90

    def test_var2_recovered(self):
        rng = np.random.default_rng(203)
        coefs = [
            np.array([[0.5, 0.1], [0.0, 0.4]]),
            np.array([[-0.35, 0.0], [0.1, 0.25]]),
        ]
        hits = sum(
            select_lags(simulate_var(coefs, 400, rng), 4).chosen["byAic"] == 2
            for _ in range(200)
        )
        assert hits / 200 >= 0.80
