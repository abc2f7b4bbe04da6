import math
from collections import Counter

import numpy as np
import pytest

from cointegra import lagselect, linalg
from cointegra.errors import RankDeficient, SampleTooShort
from cointegra.lagselect import LagSelection, LagStats, select_lags
from cointegra.panel import VARIABLES, PanelDataset
from cointegra.quarters import QuarterDate


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
        levels = np.repeat(np.arange(1.0, 7.0)[:, None], len(VARIABLES), axis=1)
        panel = PanelDataset("AL", 113, QuarterDate(2001, 1), levels)
        with pytest.raises(SampleTooShort):
            select_lags(panel.levels, 1)

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


def per_lag_reference(y, max_lag):
    """Lag selection with one ``linalg.ols`` fit per candidate lag: the loop
    that the single factorization in ``select_lags`` replaced."""
    y = np.asarray(y, dtype=float)
    t, n = y.shape
    t_eff = t - max_lag
    lhs = y[max_lag:]
    log_dets = []
    per_lag = []
    for p in range(max_lag + 1):
        cols = [np.ones((t_eff, 1))]
        for i in range(1, p + 1):
            cols.append(y[max_lag - i : t - i])
        x = np.hstack(cols)
        sigma = linalg.ols(x, lhs).residual_covariance
        log_det = lagselect._log_det(sigma)
        log_dets.append(log_det)

        log_lik = -(t_eff / 2.0) * (n * math.log(2.0 * math.pi) + log_det + n)
        m = n * (n * p + 1)
        s = n * p + 1
        aic = (-2.0 * log_lik + 2.0 * m) / t_eff
        sbic = (-2.0 * log_lik + math.log(t_eff) * m) / t_eff
        hqic = (-2.0 * log_lik + 2.0 * math.log(math.log(t_eff)) * m) / t_eff
        fpe = math.exp(log_det) * ((t_eff + s) / (t_eff - s)) ** n
        if p == 0:
            lr, lr_p = None, None
        else:
            lr = (t_eff - s) * (log_dets[p - 1] - log_det)
            lr = max(lr, 0.0)
            lr_p = linalg.chi2_sf(lr, n * n)
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


def levels_like(n, t, rng):
    """Integrated series at the pipeline's scales: a stationary VAR(2)
    cumulated, each variable offset and scaled by a different power of ten."""
    coefs = [0.4 * np.eye(n) + 0.05, -0.2 * np.eye(n)]
    scale = 10.0 ** np.arange(n)
    return (100.0 + np.cumsum(simulate_var(coefs, t, rng), axis=0)) * scale


class TestOneFactorization:
    """select_lags against a separate least-squares fit per lag. The sums run
    in another order, so values agree to a relative 1e-12, not bitwise;
    a p-value is a tail probability and amplifies that error, so it is held
    to 1e-10."""

    CRITERIA = ("log_lik", "log_det_sigma", "aic", "fpe", "hqic", "sbic")

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("max_lag", [0, 1, 4, 12])
    @pytest.mark.parametrize("kind", ["stationary", "integrated"])
    def test_matches_per_lag_ols(self, n, max_lag, kind):
        rng = np.random.default_rng(1000 * n + max_lag)
        if kind == "stationary":
            y = simulate_var([0.5 * np.eye(n)], 312, rng)
        else:
            y = levels_like(n, 312, rng)
        got = select_lags(y, max_lag)
        want = per_lag_reference(y, max_lag)
        assert got.chosen == want.chosen
        assert [r.lag for r in got.per_lag] == [r.lag for r in want.per_lag]
        for name in self.CRITERIA:
            np.testing.assert_allclose(
                [getattr(r, name) for r in got.per_lag],
                [getattr(r, name) for r in want.per_lag],
                rtol=1e-12, atol=0, err_msg=name,
            )
        assert got.per_lag[0].lr_statistic is None and got.per_lag[0].lr_pvalue is None
        np.testing.assert_allclose(
            [r.lr_statistic for r in got.per_lag[1:]],
            [r.lr_statistic for r in want.per_lag[1:]],
            rtol=1e-12, atol=0,
        )
        np.testing.assert_allclose(
            [r.lr_pvalue for r in got.per_lag[1:]],
            [r.lr_pvalue for r in want.per_lag[1:]],
            rtol=1e-10, atol=0,
        )

    @pytest.mark.parametrize("max_lag", [0, 1, 4, 12])
    def test_one_qr_and_no_ols_per_call(self, max_lag, monkeypatch):
        calls = Counter()

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return wrapper

        originals = {name: getattr(linalg, name) for name in ("qr_r", "ols", "pivoted_qr")}
        for module in (linalg, lagselect):
            for name, func in originals.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, func))
        y = levels_like(5, 312, np.random.default_rng(max_lag))
        select_lags(y, max_lag)
        assert calls == Counter(qr_r=1)
        select_lags(y, max_lag)
        assert calls == Counter(qr_r=2)


def degenerate(kind, t=120, seed=7):
    """Five integrated variables, the last replaced by an exact function of
    the others or of time, so some candidate design loses rank."""
    y = levels_like(5, t, np.random.default_rng(seed))
    if kind == "constant":
        y[:, 4] = 1.5
    elif kind == "scaled duplicate":
        y[:, 4] = 3.0 * y[:, 3]
    elif kind == "sum":
        y[:, 4] = y[:, 2] + y[:, 3]
    elif kind == "linear trend":
        y[:, 4] = 0.5 + 0.01 * np.arange(t)
    return y


class TestDegenerateInput:
    # The rank check sits on the diagonal of the one factorization; an exact
    # linear combination can also surface as a singular residual
    # covariance. Either way the type is RankDeficient.
    @pytest.mark.parametrize("kind", ["constant", "scaled duplicate", "sum", "linear trend"])
    def test_rank_deficient(self, kind):
        with pytest.raises(RankDeficient):
            select_lags(degenerate(kind), 4)

    def test_message_names_the_design_width(self):
        # A trend is collinear with its own lag and the constant from lag 2 on.
        with pytest.raises(RankDeficient, match=r"^design matrix rank-deficient \(11 columns\)$"):
            select_lags(degenerate("linear trend"), 4)
