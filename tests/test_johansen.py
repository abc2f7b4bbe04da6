import numpy as np
import pytest

from cointegra.errors import (
    LeadingBlockSingular,
    SampleTooShort,
    SingularS00,
)
from cointegra.johansen import (
    TRACE_CV5,
    DeterministicCase,
    beta_normalize,
    johansen_test,
)


def coint_pair(t, rng, noise=1.0):
    x = np.cumsum(rng.standard_normal(t))
    y = x + noise * rng.standard_normal(t)
    return np.column_stack([x, y])


class TestCaseParsing:
    def test_aliases(self):
        assert DeterministicCase.parse("rconst") is DeterministicCase.RESTRICTED_CONSTANT
        assert (
            DeterministicCase.parse("restrictedConstant")
            is DeterministicCase.RESTRICTED_CONSTANT
        )
        assert DeterministicCase.parse("NONE") is DeterministicCase.NONE
        assert DeterministicCase.RESTRICTED_CONSTANT.short == "rconst"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            DeterministicCase.parse("quadratic")


class TestStatisticsStructure:
    def setup_method(self):
        rng = np.random.default_rng(42)
        self.data = coint_pair(400, rng)
        self.res = johansen_test(self.data, 2, "rconst")

    def test_eigenvalues_descending_in_unit_interval(self):
        lam = self.res.eigenvalues
        assert np.all(lam >= 0.0) and np.all(lam < 1.0)
        assert np.all(np.diff(lam) <= 1e-12)

    def test_trace_is_cumulative_maxeig(self):
        trace = self.res.trace_stats
        maxeig = self.res.max_eig_stats
        assert trace[-1] == pytest.approx(maxeig[-1])
        for r in range(len(trace) - 1):
            assert trace[r] - trace[r + 1] == pytest.approx(maxeig[r], rel=1e-10)
        assert np.all(np.diff(trace) < 0)

    def test_selected_rank_rule(self):
        cv = self.res.trace_cv5
        expected = len(self.res.trace_stats)
        for r, stat in enumerate(self.res.trace_stats):
            if stat < cv[r]:
                expected = r
                break
        assert self.res.selected_rank == expected

    def test_critical_value_lookup(self):
        # n=2: r=0 uses the dimension-2 entry, r=1 the dimension-1 entry.
        cv = self.res.trace_cv5
        case = DeterministicCase.RESTRICTED_CONSTANT
        assert cv[0] == TRACE_CV5[case][1]
        assert cv[1] == TRACE_CV5[case][0]

    def test_effective_sample(self):
        assert self.res.t_eff == 400 - 2

    def test_beta_shape_includes_restricted_constant(self):
        assert self.res.beta.shape == (3, 2)
        none_res = johansen_test(self.data, 2, "none")
        assert none_res.beta.shape == (2, 2)


class TestErrors:
    def test_sample_too_short(self):
        rng = np.random.default_rng(1)
        with pytest.raises(SampleTooShort):
            johansen_test(coint_pair(15, rng), 3, "rconst")

    def test_k_zero_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            johansen_test(coint_pair(100, rng), 0, "rconst")

    def test_duplicated_variable_gives_singular_s00(self):
        rng = np.random.default_rng(2)
        x = np.cumsum(rng.standard_normal(120))
        data = np.column_stack([x, x])
        with pytest.raises(SingularS00):
            johansen_test(data, 1, "none")


class TestTrendCasesRejected:
    def test_trend_cases_are_unknown(self):
        data = coint_pair(200, np.random.default_rng(10))
        for case in ("rtrend", "utrend", "restrictedTrend", "unrestrictedTrend"):
            with pytest.raises(ValueError, match="unknown deterministic case"):
                johansen_test(data, 2, case)


class TestInvariances:
    def test_rescaling_leaves_statistics(self):
        rng = np.random.default_rng(33)
        data = coint_pair(300, rng)
        for case in ("none", "rconst", "uconst"):
            base = johansen_test(data, 2, case)
            scaled_data = data.copy()
            scaled_data[:, 0] *= 1000.0
            scaled = johansen_test(scaled_data, 2, case)
            assert scaled.trace_stats == pytest.approx(base.trace_stats, abs=1e-8)
            assert scaled.eigenvalues == pytest.approx(base.eigenvalues, abs=1e-12)

    def test_univariate_trace_matches_squared_t_identity(self):
        # For n=1, k=1, no deterministics: trace = T*ln(1 + t^2/T) where t is
        # the ML-variance t-ratio of dy on y_{t-1}.
        rng = np.random.default_rng(44)
        for _ in range(10):
            y = np.cumsum(rng.standard_normal(150))
            res = johansen_test(y[:, None], 1, "none")
            dy = np.diff(y)
            ylag = y[:-1]
            t_eff = dy.size
            rho = (dy @ ylag) / (ylag @ ylag)
            resid = dy - rho * ylag
            sigma_ml = resid @ resid / t_eff
            tstat_sq = rho**2 * (ylag @ ylag) / sigma_ml
            expected = t_eff * np.log1p(tstat_sq / t_eff)
            assert res.trace_stats[0] == pytest.approx(expected, rel=1e-10)


class TestBetaNormalize:
    def test_scalar_rescale(self):
        out = beta_normalize(np.array([[2.0], [-4.0]]), 1)
        assert out == pytest.approx(np.array([[1.0], [-2.0]]))

    def test_identity_block_unchanged(self):
        b = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, -0.7]])
        assert beta_normalize(b, 2) == pytest.approx(b)

    def test_zero_pivot_falls_back(self):
        # Row 0 cannot lead, so row 1 is scaled to one.
        out = beta_normalize(np.array([[0.0], [2.0]]), 1)
        assert out == pytest.approx(np.array([[0.0], [1.0]]))

    def test_rank_deficient_raises(self):
        with pytest.raises(LeadingBlockSingular):
            beta_normalize(np.zeros((3, 2)), 1)

    def test_span_preserved(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            b = rng.standard_normal((5, 2))
            out = beta_normalize(b, 2)
            # Columns of out must lie in the span of the originals.
            proj = b[:, :2] @ np.linalg.lstsq(b[:, :2], out, rcond=None)[0]
            assert proj == pytest.approx(out, abs=1e-8)
            assert out[:2, :] == pytest.approx(np.eye(2), abs=1e-10)


class TestRankRecoverySmoke:
    def test_cointegrated_pair_rank_one(self):
        rng = np.random.default_rng(60)
        hits = sum(
            johansen_test(coint_pair(500, rng), 2, "rconst").selected_rank == 1
            for _ in range(60)
        )
        assert hits / 60 >= 0.85

    def test_independent_walks_rank_zero(self):
        rng = np.random.default_rng(61)
        hits = 0
        for _ in range(60):
            data = np.cumsum(rng.standard_normal((500, 2)), axis=0)
            hits += johansen_test(data, 1, "rconst").selected_rank == 0
        assert hits / 60 >= 0.80
