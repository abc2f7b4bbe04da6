import math
from collections import Counter

import numpy as np
import pytest

from cointegra import lagselect, linalg
from cointegra.errors import RankDeficient, SampleTooShort
from cointegra.lagselect import select_lags
from cointegra.panel import VARIABLES, PanelDataset
from cointegra.quarters import QuarterDate
from reference import ols


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

    @pytest.mark.parametrize("n, max_lag", [(5, 5), (5, 1), (2, 12), (1, 0)])
    def test_message_names_the_smallest_sample_that_passes(self, n, max_lag):
        need = max_lag + max(math.ceil(5 * n * max_lag / 2), n * max_lag + 2)
        y = levels_like(n, need, np.random.default_rng(n + max_lag))
        select_lags(y, max_lag)
        message = f"^{need - 1} quarters available; max_lag={max_lag} needs at least {need}$"
        with pytest.raises(SampleTooShort, match=message):
            select_lags(y[1:], max_lag)

    def test_negative_max_lag_rejected(self):
        with pytest.raises(ValueError):
            select_lags(np.random.default_rng(0).standard_normal((50, 2)), -1)


class TestCriteriaAlgebra:
    def setup_method(self):
        rng = np.random.default_rng(55)
        self.data = simulate_var([np.array([[0.5, 0.1], [0.0, 0.4]])], 300, rng)
        self.sel = select_lags(self.data, 4)

    def test_common_sample_covers_all_lags(self):
        sel = self.sel
        assert sel.max_lag == 4
        for criterion in (sel.log_lik, sel.log_det_sigma, sel.aic, sel.fpe, sel.hqic, sel.sbic):
            assert criterion.shape == (5,)
        # Lags 1..4, each tested against the next-shorter one.
        assert sel.lr_statistic.shape == sel.lr_pvalue.shape == (4,)

    def test_log_det_non_increasing(self):
        lds = self.sel.log_det_sigma
        assert all(b <= a + 1e-10 for a, b in zip(lds, lds[1:]))

    def test_log_lik_non_decreasing(self):
        lls = self.sel.log_lik
        assert all(b >= a - 1e-8 for a, b in zip(lls, lls[1:]))

    def test_aic_recomputation(self):
        # AIC reduces to n*ln(2pi) + log|Sigma| + n + 2m/T on the common sample.
        n = 2
        t_eff = 300 - 4
        for lag in range(5):
            m = n * (n * lag + 1)
            expected = n * math.log(2 * math.pi) + self.sel.log_det_sigma[lag] + n + 2 * m / t_eff
            assert self.sel.aic[lag] == pytest.approx(expected, rel=1e-12)

    def test_sbic_hqic_penalties(self):
        n = 2
        t_eff = 296
        sel = self.sel
        for lag in range(5):
            m = n * (n * lag + 1)
            assert sel.sbic[lag] - sel.aic[lag] == pytest.approx(
                (math.log(t_eff) - 2.0) * m / t_eff, rel=1e-10
            )
            assert sel.hqic[lag] - sel.aic[lag] == pytest.approx(
                2.0 * (math.log(math.log(t_eff)) - 1.0) * m / t_eff, rel=1e-10
            )

    def test_fpe_recomputation(self):
        n = 2
        t_eff = 296
        for lag in range(5):
            s = n * lag + 1
            expected = math.exp(self.sel.log_det_sigma[lag]) * ((t_eff + s) / (t_eff - s)) ** n
            assert self.sel.fpe[lag] == pytest.approx(expected, rel=1e-12)

    def test_lr_statistics(self):
        n = 2
        t_eff = 296
        lds = self.sel.log_det_sigma
        # Lag 0 has no test: entry p - 1 is lag p's.
        assert len(self.sel.lr_statistic) == len(lds) - 1
        for p in range(1, 5):
            s = n * p + 1
            expected = (t_eff - s) * (lds[p - 1] - lds[p])
            assert self.sel.lr_statistic[p - 1] == pytest.approx(max(expected, 0.0))
            assert self.sel.lr_statistic[p - 1] >= 0.0
            assert 0.0 <= self.sel.lr_pvalue[p - 1] <= 1.0

    def test_chosen_match_argmin(self):
        sel = self.sel
        assert list(sel.chosen) == ["aic", "hq", "sc", "fpe", "lr"]
        for name, values in (("aic", sel.aic), ("hq", sel.hqic), ("sc", sel.sbic), ("fpe", sel.fpe)):
            assert sel.chosen[name] == min(range(5), key=lambda lag: values[lag])

    def test_by_lr_scans_from_top(self):
        expected = 0
        for p in range(4, 0, -1):
            if self.sel.lr_pvalue[p - 1] < 0.05:
                expected = p
                break
        assert self.sel.chosen["lr"] == expected


class TestScaleInvariance:
    def test_rescaling_one_variable_keeps_choices(self):
        rng = np.random.default_rng(77)
        data = simulate_var([np.array([[0.4, 0.0], [0.1, 0.3]])], 250, rng)
        base = select_lags(data, 4)
        scaled_data = data.copy()
        scaled_data[:, 1] *= 1000.0
        scaled = select_lags(scaled_data, 4)
        assert scaled.chosen == base.chosen
        base_diffs = np.diff(base.aic)
        scaled_diffs = np.diff(scaled.aic)
        assert scaled_diffs == pytest.approx(base_diffs, abs=1e-8)


class TestOrderRecovery:
    def test_white_noise_prefers_lag_zero(self):
        # System dimension 5; each extra lag costs 25 parameters, so AIC
        # overfits white noise only rarely.
        rng = np.random.default_rng(202)
        hits = sum(
            select_lags(rng.standard_normal((400, 5)), 4).chosen["aic"] == 0
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
            select_lags(simulate_var(coefs, 400, rng), 4).chosen["aic"] == 2
            for _ in range(200)
        )
        assert hits / 200 >= 0.80


def per_lag_reference(y, max_lag):
    """Lag selection with one ``ols`` fit per candidate lag: the loop
    that the single factorization in ``select_lags`` replaced. Returns each
    criterion's list over lags 0..max_lag, the LR statistics and p-values
    of lags 1..max_lag, and the chosen lags."""
    y = np.asarray(y, dtype=float)
    t, n = y.shape
    t_eff = t - max_lag
    lhs = y[max_lag:]
    out = {name: [] for name in ("log_lik", "log_det_sigma", "aic", "fpe", "hqic", "sbic")}
    out["lr_statistic"], out["lr_pvalue"] = [], []
    log_dets = out["log_det_sigma"]
    for p in range(max_lag + 1):
        cols = [np.ones((t_eff, 1))]
        for i in range(1, p + 1):
            cols.append(y[max_lag - i : t - i])
        x = np.hstack(cols)
        resid = ols(x, lhs)[1]
        sigma = resid.T @ resid / t_eff
        log_det = lagselect._log_det((sigma + sigma.T) / 2.0)
        log_dets.append(log_det)

        log_lik = -(t_eff / 2.0) * (n * math.log(2.0 * math.pi) + log_det + n)
        m = n * (n * p + 1)
        s = n * p + 1
        out["log_lik"].append(log_lik)
        out["aic"].append((-2.0 * log_lik + 2.0 * m) / t_eff)
        out["sbic"].append((-2.0 * log_lik + math.log(t_eff) * m) / t_eff)
        out["hqic"].append((-2.0 * log_lik + 2.0 * math.log(math.log(t_eff)) * m) / t_eff)
        out["fpe"].append(math.exp(log_det) * ((t_eff + s) / (t_eff - s)) ** n)
        if p > 0:
            lr = (t_eff - s) * (log_dets[p - 1] - log_det)
            lr = max(lr, 0.0)
            out["lr_statistic"].append(lr)
            out["lr_pvalue"].append(linalg.chi2_sf(lr, n * n))

    out["chosen"] = {
        name: min(range(max_lag + 1), key=lambda p: out[criterion][p])
        for name, criterion in (("aic", "aic"), ("hq", "hqic"), ("sc", "sbic"), ("fpe", "fpe"))
    }
    by_lr = 0
    for p in range(max_lag, 0, -1):
        if out["lr_pvalue"][p - 1] < 0.05:
            by_lr = p
            break
    out["chosen"]["lr"] = by_lr
    return out


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
        assert got.chosen == want["chosen"]
        assert [len(getattr(got, name)) for name in self.CRITERIA] == [
            len(want[name]) for name in self.CRITERIA
        ]
        for name in self.CRITERIA:
            np.testing.assert_allclose(
                getattr(got, name), want[name], rtol=1e-12, atol=0, err_msg=name,
            )
        # Lag 0 has no test, so there are max_lag of each.
        assert len(got.lr_statistic) == len(got.lr_pvalue) == max_lag
        np.testing.assert_allclose(
            got.lr_statistic, want["lr_statistic"], rtol=1e-12, atol=0,
        )
        np.testing.assert_allclose(
            got.lr_pvalue, want["lr_pvalue"], rtol=1e-10, atol=0,
        )

    @pytest.mark.parametrize("max_lag", [0, 1, 4, 12])
    def test_one_qr_and_no_ols_per_call(self, max_lag, monkeypatch):
        calls = Counter()

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return wrapper

        originals = {name: getattr(linalg, name) for name in ("qr_r", "ols")}
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
