"""End-to-end acceptance checks.

Each test covers one shipped guarantee and prints a single
``[PASS]``/``[FAIL]`` line (run with ``pytest -s`` to see them):

1. the bundled dataset reproduces its published summary table at 3 decimals;
2. joint normality statistics equal per-equation sums exactly;
3. difference-form and level-form forecasts agree on random models;
4. the rank test recovers known cointegration structure;
5. the unit-root test has the advertised size and power;
6. residual diagnostics are calibrated on white noise;
7. the full pipeline is deterministic with the expected model inventory;
8. backtests are finite everywhere and rank-zero forecasts are flat.
"""

import math
import os
import time

import numpy as np

from cointegra.diagnostics import lm_autocorrelation, normality_tests
from fixtures import MODELS, PANEL_STATS, PRICE_STATS
from cointegra.johansen import DeterministicCase, johansen_test
from cointegra.lagselect import select_lags
from cointegra.linalg import chi2_sf
from cointegra.panel import VARIABLES, ingest_panel, summarize
from cointegra.pipeline import load_config, run_pipeline
from cointegra.quarters import QuarterDate
from cointegra.unitroot import adf_test
from cointegra.vecm import ModelSpec, VecmFit, backtest, fit_vecm, forecast

DATA_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "data", "sixstate")
)
CONFIG = os.path.join(DATA_ROOT, "config.json")
HOLDOUT = QuarterDate(2016, 1)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def load_panel(state: str, naics: int):
    return ingest_panel(
        os.path.join(DATA_ROOT, "panels", f"{state}_{naics}.csv"),
        state=state,
        naics=naics,
    )


_FITS: list[tuple] = []


def bundled_fits():
    """All sixteen bundled models under the pipeline's automatic spec."""
    if not _FITS:
        for naics, state in MODELS:
            panel = load_panel(state, naics)
            x = panel.levels
            k = max(1, select_lags(x, max_lag=4).chosen["aic"])
            rank = johansen_test(x, k, "restrictedConstant").selected_rank
            fit = fit_vecm(x, ModelSpec(k=k, r=rank, case="restrictedConstant"))
            _FITS.append((panel, fit))
    return _FITS


def test_criterion_1_summary_table_reproduction():
    start = time.perf_counter()
    mismatches = []
    checked = 0
    for naics, state in MODELS:
        stats = summarize(load_panel(state, naics))
        targets = dict(PANEL_STATS[(naics, state)])
        targets["price"] = PRICE_STATS[naics]
        for name, target in targets.items():
            got = stats[name]
            cells = [
                (got["n"], target.n),
                (f"{got['mean']:.3f}", f"{target.mean:.3f}"),
                (f"{got['sd']:.3f}", f"{target.sd:.3f}"),
                (f"{got['min']:.3f}", f"{target.minimum:.3f}"),
                (f"{got['max']:.3f}", f"{target.maximum:.3f}"),
            ]
            checked += 1
            if any(a != b for a, b in cells):
                mismatches.append((state, naics, name, cells))
    spot = summarize(load_panel("AL", 113))
    spot_ok = (
        f"{spot['employment']['mean']:.3f}" == "4770.722"
        and f"{spot['employment']['sd']:.3f}" == "528.868"
        and f"{spot['price']['mean']:.3f}" == "0.888"
        and f"{spot['price']['sd']:.3f}" == "0.070"
    )
    elapsed = time.perf_counter() - start
    ok = not mismatches and spot_ok and elapsed < 1.0
    _report(
        1,
        ok,
        f"{checked - len(mismatches)}/{checked} summary rows match at 3 decimals "
        f"in {elapsed:.2f}s (< 1s)",
    )
    assert spot_ok, "spot-check values for AL 113 employment/price do not match"
    assert not mismatches, mismatches[:3]
    assert elapsed < 1.0


def test_criterion_2_joint_normality_consistency():
    literal = (3.987, 16.960, 2.579, 0.141, 13.726)
    assert round(math.fsum(literal), 2) == 37.39
    worst = 0.0
    bad = []
    fits = bundled_fits()
    for panel, fit in fits:
        _skews, _kurts, stats, pvalues = normality_tests(fit)
        # Columns skewness, kurtosis, Jarque-Bera; the last row is the joint one.
        sums = {
            "skew": math.fsum(stats[:-1, 0]),
            "kurt": math.fsum(stats[:-1, 1]),
            "jb": math.fsum(stats[:-1, 2]),
        }
        gaps = (
            abs(stats[-1, 0] - sums["skew"]),
            abs(stats[-1, 1] - sums["kurt"]),
            abs(stats[-1, 2] - sums["jb"]),
        )
        worst = max(worst, *gaps)
        # The joint p-values are those of 10, 5 and 5 degrees of freedom.
        dofs_ok = list(pvalues[-1]) == [
            chi2_sf(stats[-1, 0], 5), chi2_sf(stats[-1, 1], 5), chi2_sf(stats[-1, 2], 10)
        ]
        if max(gaps) > 1e-9 or not dofs_ok:
            bad.append((panel.state, panel.naics, gaps, dofs_ok))
    ok = not bad
    _report(
        2,
        ok,
        f"joint stats equal per-equation sums for {len(fits) - len(bad)}/{len(fits)} "
        f"models, worst gap {worst:.2e} (<= 1e-9), df 10/5/5",
    )
    assert not bad, bad


def difference_recursion(fit: VecmFit, last_obs: np.ndarray, horizon: int) -> np.ndarray:
    """Forecast oracle driven directly by the error-correction recursion."""
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
        for i, gamma in enumerate(fit.gammas):
            dx = dx + gamma @ diffs[-1 - i]
        levels.append(prev + dx)
        diffs.append(dx)
        out.append(levels[-1])
    return np.asarray(out)


def test_criterion_3_dual_representation_forecasts():
    start = time.perf_counter()
    rng = np.random.default_rng(20010103)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 5))
        r = int(rng.integers(0, n + 1))
        case = ("none", "rconst", "uconst")[int(rng.integers(3))]
        rows = n + 1 if case == "rconst" else n
        spec = ModelSpec(k=k, r=r, case=case)
        fit = VecmFit(
            alpha=rng.uniform(-0.3, 0.0, size=(n, r)),
            beta=rng.standard_normal((rows, r)),
            gammas=[rng.uniform(-0.2, 0.2, size=(n, n)) for _ in range(k - 1)],
            mu=rng.standard_normal(n) * (case == "uconst"),
            sigma=np.eye(n),
            residuals=np.zeros((12, n)),
            spec=spec,
            t_eff=12,
        )
        last = 100.0 + rng.standard_normal((k, n)) * 10.0
        lib = forecast(fit, last, 20)
        oracle = difference_recursion(fit, last, 20)
        # unit floor keeps the metric finite where a path crosses zero
        rel = np.abs(lib - oracle) / np.maximum(np.abs(oracle), 1.0)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(
        3,
        ok,
        f"100 random models, 20 horizons: max relative error {worst:.2e} "
        f"(<= 1e-8) in {elapsed:.2f}s (< 10s)",
    )
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_4_rank_recovery():
    start = time.perf_counter()
    reps, t = 200, 500

    hits_coint = 0
    for rep in range(reps):
        rng = np.random.default_rng(410_000 + rep)
        x = np.cumsum(rng.standard_normal(t))
        y = x + rng.standard_normal(t)
        data = np.column_stack([x, y])
        res = johansen_test(data, 2, "unrestrictedConstant")
        hits_coint += res.selected_rank == 1

    hits_none = 0
    for rep in range(reps):
        rng = np.random.default_rng(420_000 + rep)
        data = np.cumsum(rng.standard_normal((t, 2)), axis=0)
        res = johansen_test(data, 1, "restrictedConstant")
        hits_none += res.selected_rank == 0

    hits_full = 0
    a1 = np.array([[0.5, 0.1], [0.0, 0.3]])
    for rep in range(reps):
        rng = np.random.default_rng(430_000 + rep)
        shocks = rng.standard_normal((t + 50, 2))
        data = np.zeros((t + 50, 2))
        for i in range(1, t + 50):
            data[i] = a1 @ data[i - 1] + shocks[i]
        res = johansen_test(data[-t:], 1, "restrictedConstant")
        hits_full += res.selected_rank == 2

    rates = (hits_coint / reps, hits_none / reps, hits_full / reps)
    elapsed = time.perf_counter() - start
    ok = (
        rates[0] >= 0.90
        and rates[1] >= 0.85
        and rates[2] >= 0.85
        and elapsed < 60.0
    )
    _report(
        4,
        ok,
        f"rank-1 {rates[0]:.1%} (>= 90%), independent walks rank-0 {rates[1]:.1%} "
        f"(>= 85%), stationary full rank {rates[2]:.1%} (>= 85%) "
        f"in {elapsed:.1f}s (< 60s)",
    )
    assert rates[0] >= 0.90
    assert rates[1] >= 0.85
    assert rates[2] >= 0.85
    assert elapsed < 60.0


def test_criterion_5_adf_size_and_power():
    start = time.perf_counter()
    reps, t = 500, 200

    keep_walk = 0
    for rep in range(reps):
        rng = np.random.default_rng(510_000 + rep)
        walk = np.cumsum(rng.standard_normal(t))
        stat, cv = adf_test(walk, 0, "constant")
        keep_walk += not stat < cv[0.05]

    reject_noise = 0
    for rep in range(reps):
        rng = np.random.default_rng(520_000 + rep)
        noise = rng.standard_normal(t)
        stat, cv = adf_test(noise, 0, "constant")
        reject_noise += stat < cv[0.05]

    rate_keep = keep_walk / reps
    rate_reject = reject_noise / reps
    elapsed = time.perf_counter() - start
    ok = rate_keep >= 0.90 and rate_reject >= 0.95 and elapsed < 30.0
    _report(
        5,
        ok,
        f"random walk kept {rate_keep:.1%} (>= 90%), white noise rejected "
        f"{rate_reject:.1%} (>= 95%) in {elapsed:.1f}s (< 30s)",
    )
    assert rate_keep >= 0.90
    assert rate_reject >= 0.95
    assert elapsed < 30.0


def white_noise_fit(e: np.ndarray) -> VecmFit:
    """Wrap raw residuals in a regressor-free fit for the diagnostics."""
    t_eff, n = e.shape
    return VecmFit(
        alpha=np.zeros((n, 0)),
        beta=np.zeros((n, 0)),
        gammas=[],
        mu=np.zeros(n),
        sigma=e.T @ e / t_eff,
        residuals=e,
        spec=ModelSpec(k=1, r=0, case="none"),
        t_eff=t_eff,
    )


def test_criterion_6_diagnostics_calibration():
    start = time.perf_counter()
    reps = 500
    lm_hits = 0
    jb_hits = 0
    for rep in range(reps):
        rng = np.random.default_rng(610_000 + rep)
        fit = white_noise_fit(rng.standard_normal((200, 2)))
        lm_hits += lm_autocorrelation(fit, 1)[1][0] < 0.05
        jb_hits += normality_tests(fit)[3][-1, 2] < 0.05
    lm_rate = lm_hits / reps
    jb_rate = jb_hits / reps
    elapsed = time.perf_counter() - start
    ok = 0.02 <= lm_rate <= 0.09 and 0.02 <= jb_rate <= 0.09 and elapsed < 60.0
    _report(
        6,
        ok,
        f"LM rejects {lm_rate:.1%}, joint JB rejects {jb_rate:.1%} "
        f"(both within [2%, 9%]) in {elapsed:.1f}s (< 60s)",
    )
    assert 0.02 <= lm_rate <= 0.09
    assert 0.02 <= jb_rate <= 0.09
    assert elapsed < 60.0


def test_criterion_7_pipeline_determinism(tmp_path):
    start = time.perf_counter()
    manifests = []
    for run in ("a", "b"):
        config = load_config(CONFIG, out_dir=str(tmp_path / run))
        manifests.append(run_pipeline(config))
    first, second = manifests

    counts: dict[int, int] = {}
    for entry in first.models:
        counts[entry["naics"]] = counts.get(entry["naics"], 0) + 1
    shape_ok = (
        len(first.models) == 16
        and counts == {113: 5, 321: 6, 322: 5}
        and not first.failed
        and not second.failed
    )

    names = sorted(os.listdir(tmp_path / "a"))
    identical = names == sorted(os.listdir(tmp_path / "b"))
    diffs = []
    for name in names:
        if name == "manifest.json":
            continue
        with open(tmp_path / "a" / name, "rb") as fh:
            blob_a = fh.read()
        with open(tmp_path / "b" / name, "rb") as fh:
            blob_b = fh.read()
        if blob_a != blob_b:
            diffs.append(name)
    identical = identical and not diffs
    # run records match apart from wall-clock timings
    records_ok = first.models == second.models and first["files"] == second["files"]

    elapsed = time.perf_counter() - start
    ok = shape_ok and identical and records_ok and elapsed < 120.0
    _report(
        7,
        ok,
        f"16 model entries (5+6+5), {len(names) - 1} report files byte-identical "
        f"across runs in {elapsed:.1f}s (< 120s)",
    )
    assert shape_ok, counts
    assert identical, diffs
    assert records_ok
    assert elapsed < 120.0


def test_criterion_8_backtest_and_martingale_forecasts():
    nonfinite = []
    not_flat = []
    for panel, fit in bundled_fits():
        rmse, mape = backtest(panel, fit.spec, HOLDOUT)
        for name, rmse_j, mape_j in zip(VARIABLES, rmse, mape, strict=True):
            if not (math.isfinite(rmse_j) and math.isfinite(mape_j)):
                nonfinite.append((panel.state, panel.naics, name))
        flat_fit = fit_vecm(panel.levels, ModelSpec(k=1, r=0, case="none"))
        last = panel.levels[-1]
        path = forecast(flat_fit, panel.levels[-1:], 8)
        if not np.array_equal(path, np.tile(last, (8, 1))):
            not_flat.append((panel.state, panel.naics))
    ok = not nonfinite and not not_flat
    _report(
        8,
        ok,
        "finite RMSE/MAPE for 16/16 backtests; rank-zero forecasts exactly "
        "flat (differences identically zero)",
    )
    assert not nonfinite, nonfinite
    assert not not_flat, not_flat
