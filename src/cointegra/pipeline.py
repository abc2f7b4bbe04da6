"""Full-workflow orchestration.

Loads a JSON run configuration, executes the stage chain (ingest, location
quotients, unit-root tests, lag selection, cointegration rank, VECM fit,
residual diagnostics, forecast, backtest, impulse responses) for every
configured model, and writes one report bundle. Failures are recorded per
model and never abort the run. The models do not depend on each other, so
they run in W processes: W is the number of CPUs the process may run on
(``os.sched_getaffinity``), at most the number of models, and 1 where
``os.fork`` is missing or the caller runs more than one thread. In report
order, (state, naics), model i runs in worker i mod W; worker 0 is the
calling process. Each process reads its own models' panels, and each forked
worker sends each model's results back over a pipe as the model ends. The
caller appends its own and the received rows to temp files in the output
directory strictly in report order, so it holds one model's text at a time,
its own or a received one; the reports and then the manifest are renamed
into place at the end, and an interrupted run leaves the previous bundle as
it was. A run holds an exclusive ``flock`` on the output directory
meanwhile (none without ``fcntl``), so a second run into it waits and a
bundle never mixes two runs. A worker that dies before sending a model's
results ends the run as ``WorkerFailed``. ``taskset -c 0`` gives a serial
run. The manifest times each model's stages and each worker's CPU and peak
memory, names the stage and exception class of a failed model, and gives
the lag each criterion picks for an ok one (``lagChoice``). Given the same
configuration, data, and seed, the report CSVs are byte-identical across
runs and worker counts; manifest timings are the only varying output.

Each report has one builder (``summary_lines`` … ``backtest_lines``) that
returns one model's rows as text; ``run`` writes them into the bundle and
the stage commands print them. plot.csv's base quarter is the latest start
among the panels read in every process, which the caller gathers from the
workers and sends back before their first model; a model whose panel lacks
that quarter fails alone. The large reports (lq, forecast, irf, plot) are
filled from a ``%.6g`` template in a single formatting call. No field ever
needs CSV quoting: states and naics are validated, and every other field is
a quarter label, a variable name or a formatted number.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import signal
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat

# CPython's built-in SHA-256: hashlib would map OpenSSL's libcrypto.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

try:
    import fcntl
except ImportError:  # Windows: a run then takes no lock on its output directory
    fcntl = None

try:
    import resource
except ImportError:  # Windows: the manifest then gives no peak memory for the caller
    resource = None

import numpy as np

from . import __version__
from .diagnostics import NORMALITY_DOF, lm_autocorrelation, normality_tests
from .errors import (
    ConfigInvalid,
    DataDirMissing,
    DuplicateQuarter,
    IndexBaseMissing,
    MalformedValue,
    MissingColumn,
    OutputUnwritable,
    WorkerFailed,
)
from .johansen import DeterministicCase, JohansenResult, johansen_test
from .lagselect import LagSelection, select_lags
from .linalg import LAPACK, blas_threads
from .panel import (
    VARIABLES,
    PanelDataset,
    ingest_panel,
    location_quotient,
    lq_flag,
    parse_columns,
    read_table,
    summarize,
)
from .quarters import QuarterDate
from .unitroot import adf_tests
from .vecm import ModelSpec, VecmFit
from .vecm import backtest, fit_vecm, forecast, irf

SUPPORTED_STATES = ("AL", "AR", "ME", "MS", "OR", "WI")
SUPPORTED_NAICS = (113, 321, 322)

# Fixed stage settings not exposed through the configuration schema.
ADF_LAG = 4
ADF_CASE = "constant"
LM_LAGS = 4


@dataclass(frozen=True)
class ModelConfig:
    state: str
    naics: int
    k: int | None
    r: int | None
    case: str | None


@dataclass(frozen=True)
class RunDefaults:
    max_lag: int
    horizon: int
    holdout_start: QuarterDate | None
    johansen_case: str
    lq_threshold: float


@dataclass(frozen=True)
class RunConfig:
    data_dir: str
    out_dir: str
    models: tuple[ModelConfig, ...]
    defaults: RunDefaults
    seed: int
    config_hash: str


class RunManifest(dict):
    """The object a run writes as manifest.json, keyed as in the file."""

    @property
    def models(self) -> list[dict]:
        return self["models"]

    @property
    def failed(self) -> bool:
        return any(m["status"] != "ok" for m in self.models)


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigInvalid(f"unknown {where} keys: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigInvalid(f"missing {where} keys: {sorted(missing)}")


def _parse_case(value) -> str:
    try:
        return DeterministicCase.parse(value).value
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc


def parse_quarter(value, name: str) -> QuarterDate:
    try:
        return QuarterDate.parse(value)
    except (ValueError, TypeError) as exc:
        raise ConfigInvalid(f"bad {name}: {exc}") from exc


def _is_int(value) -> bool:
    # JSON true/false decode to bool, which is an int subclass.
    return isinstance(value, int) and not isinstance(value, bool)


def model_config(entry) -> ModelConfig:
    """Validate one model entry."""
    if not isinstance(entry, dict):
        raise ConfigInvalid("each model must be an object")
    _require_keys(entry, {"state", "naics", "k", "r", "case"}, {"state", "naics"}, "model")
    state, naics = entry["state"], entry["naics"]
    if state not in SUPPORTED_STATES:
        raise ConfigInvalid(f"unsupported state {state!r}")
    if not _is_int(naics) or naics not in SUPPORTED_NAICS:
        raise ConfigInvalid(f"unsupported naics {naics!r}")
    k = entry.get("k")
    r = entry.get("r")
    if k is not None and (not _is_int(k) or k < 1):
        raise ConfigInvalid(f"model {state}/{naics}: k must be a positive integer")
    if r is not None and (not _is_int(r) or r < 0):
        raise ConfigInvalid(f"model {state}/{naics}: r must be a nonnegative integer")
    case = entry.get("case")
    if case is not None:
        case = _parse_case(case)
    return ModelConfig(state=state, naics=naics, k=k, r=r, case=case)


def parse_config(obj: dict, base_dir: str = ".") -> RunConfig:
    """Validate a decoded configuration object.

    Unknown keys anywhere are rejected. Relative dataDir/outDir are
    resolved against ``base_dir`` (the config file's directory).
    """
    if not isinstance(obj, dict):
        raise ConfigInvalid("configuration root must be an object")
    _require_keys(
        obj,
        {"dataDir", "outDir", "models", "defaults", "seed"},
        {"dataDir", "outDir", "models"},
        "top-level",
    )
    for key in ("dataDir", "outDir"):
        if not isinstance(obj[key], str):
            raise ConfigInvalid(f"{key} must be a string")
        if "\0" in obj[key]:  # no file system takes it in a path
            raise ConfigInvalid(f"{key} must not contain a NUL character")
    if not isinstance(obj["models"], list) or not obj["models"]:
        raise ConfigInvalid("models must be a nonempty list")

    models = [model_config(entry) for entry in obj["models"]]
    if len({(m.state, m.naics) for m in models}) != len(models):
        raise ConfigInvalid("duplicate (state, naics) model entries")

    raw_defaults = obj.get("defaults", {})
    if not isinstance(raw_defaults, dict):
        raise ConfigInvalid("defaults must be an object")
    _require_keys(
        raw_defaults,
        {"maxLag", "horizon", "holdoutStart", "johansenCase", "lqThreshold"},
        set(),
        "defaults",
    )
    max_lag = raw_defaults.get("maxLag", 4)
    horizon = raw_defaults.get("horizon", 20)
    if not _is_int(max_lag) or max_lag < 1:
        raise ConfigInvalid("maxLag must be a positive integer")
    if not _is_int(horizon) or horizon < 1:
        raise ConfigInvalid("horizon must be a positive integer")
    holdout = raw_defaults.get("holdoutStart")
    if holdout is not None:
        holdout = parse_quarter(holdout, "holdoutStart")
    johansen_case = _parse_case(raw_defaults.get("johansenCase", "restrictedConstant"))
    lq_threshold = raw_defaults.get("lqThreshold", 1.0)
    # NaN, the infinities and integers beyond the float range all fail the range test.
    if (
        not isinstance(lq_threshold, (int, float))
        or isinstance(lq_threshold, bool)
        or not -sys.float_info.max <= lq_threshold <= sys.float_info.max
    ):
        raise ConfigInvalid("lqThreshold must be a finite number")

    seed = obj.get("seed", 0)
    if not _is_int(seed):
        raise ConfigInvalid("seed must be an integer")

    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return RunConfig(
        data_dir=os.path.normpath(os.path.join(base_dir, obj["dataDir"])),
        out_dir=os.path.normpath(os.path.join(base_dir, obj["outDir"])),
        models=tuple(models),
        defaults=RunDefaults(
            max_lag=max_lag,
            horizon=horizon,
            holdout_start=holdout,
            johansen_case=johansen_case,
            lq_threshold=float(lq_threshold),
        ),
        seed=seed,
        config_hash=sha256(canonical).hexdigest(),
    )


def load_config(path: str, out_dir: str | None = None, seed: int | None = None) -> RunConfig:
    """Read and validate a config file; overrides replace the raw fields
    before hashing so the manifest hash reflects the effective run."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"config is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
    if isinstance(obj, dict):
        if out_dir is not None:
            obj["outDir"] = out_dir
        if seed is not None:
            obj["seed"] = seed
    return parse_config(obj, base_dir=os.path.dirname(os.path.abspath(path)))


def fmt6(x) -> str:
    """Six significant digits, the report-wide numeric format."""
    return format(float(x), ".6g")


def fmt3(x) -> str:
    """Three-decimal fixed format for summary statistics."""
    return format(float(x), ".3f")


REPORT_HEADERS = {
    "summary.csv": ("state", "naics", "variable", "n", "mean", "sd", "min", "max"),
    "lq.csv": ("state", "naics", "quarter", "lq"),
    "lq_flags.csv": ("state", "naics", "mean_lq", "significant"),
    "adf.csv": ("state", "naics", "variable", "adf_stat", "cv1", "cv5", "cv10", "reject5"),
    "lags.csv": (
        "state", "naics", "lag", "loglik", "aic", "fpe", "hqic", "sbic",
        "lr_stat", "lr_p", "chosen_flags",
    ),
    "johansen.csv": (
        "state", "naics", "k", "case", "r", "eigenvalue", "trace", "trace_cv5",
        "maxeig", "selected_rank",
    ),
    "normality.csv": (
        "state", "naics", "equation", "jb_stat", "jb_df", "jb_p", "skew", "skew_stat",
        "skew_df", "skew_p", "kurt", "kurt_stat", "kurt_df", "kurt_p",
    ),
    "lm.csv": ("state", "naics", "lag", "lm_stat", "df", "p"),
    "forecast.csv": ("state", "naics", "quarter", "variable", "value", "is_forecast"),
    "backtest.csv": ("state", "naics", "variable", "rmse", "mape"),
    "irf.csv": ("state", "naics", "horizon", "shock_variable", "response_variable", "value"),
    "plot.csv": ("state", "naics", "quarter", "variable", "value", "is_forecast"),
}


def _read_value_series(path: str) -> dict[tuple[int, int], float]:
    """A year,quarter,value file as {(year, quarter): value}, with the
    errors of ``ingest_panel``: MalformedFile, MissingColumn if a column is
    absent, MalformedValue naming ``path`` and the first bad cell in reading
    order (a year outside 0..9999 or a quarter outside 1..4 is one), and
    DuplicateQuarter naming the earliest quarter that repeats."""
    header, rows = read_table(path)
    if {"year", "quarter", "value"} - set(header):
        raise MissingColumn(f"{path}: expected columns year,quarter,value")
    columns = ("year", "quarter", "value")
    (years, quarters, values), bad = parse_columns(header, rows, columns, (int, int, float))
    if bad is not None:
        row, col = divmod(int(np.flatnonzero(bad)[0]), len(columns))
        raise MalformedValue(row, columns[col], path)
    series = dict(zip(zip(years, quarters), values.tolist()))
    if len(series) < len(rows):
        repeated = min(key for key, count in Counter(zip(years, quarters)).items() if count > 1)
        raise DuplicateQuarter(f"quarter {QuarterDate(*repeated).label()} duplicated in {path}")
    return series


def load_aux_series(data_dir: str, states, naics_codes) -> dict[str, dict]:
    """The LQ screening series of ``states`` and ``naics_codes``, keyed by
    the file name under ``data_dir/aux`` that each is read from:
    ``national_total.csv``, then ``state_total_{state}.csv`` and then
    ``national_industry_{naics}.csv``, each in sorted order, which is the
    order the files are read in. Each series is a ``_read_value_series``
    dict, and a file's error is raised as that function raises it."""
    names = [
        "national_total.csv",
        *(f"state_total_{state}.csv" for state in sorted(set(states))),
        *(f"national_industry_{naics}.csv" for naics in sorted(set(naics_codes))),
    ]
    return {name: _read_value_series(os.path.join(data_dir, "aux", name)) for name in names}


def lq_records_for_panel(panel: PanelDataset, aux: dict[str, dict]) -> np.ndarray:
    """Location quotient of each panel quarter, in quarter order: panel
    employment over the state total, divided by national industry
    employment over the national total (``location_quotient`` as arrays).
    ``aux`` maps screening file names to series, as ``load_aux_series``
    returns them.

    Raises
    ------
    MissingColumn
        A screening series lacks a panel quarter; the first such quarter
        and the file of the first series lacking it are named.
    NonPositiveInput
        A screening value is zero or negative; the first such quarter is
        reported, unless a missing quarter comes before it.
    """
    keys = panel.start.following(len(panel))
    files = (
        f"state_total_{panel.state}.csv",
        f"national_industry_{panel.naics}.csv",
        "national_total.csv",
    )
    state_total, national_industry, national_total = columns = [
        np.fromiter(map(aux[name].get, keys, repeat(np.nan)), float, len(keys)) for name in files
    ]
    employment = panel.levels[:, VARIABLES.index("employment")]
    missing = np.isnan(state_total) | np.isnan(national_industry) | np.isnan(national_total)
    bad = ~((state_total > 0.0) & (national_industry > 0.0) & (national_total > 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        if missing[i]:
            name = next(f for f, column in zip(files, columns) if np.isnan(column[i]))
            raise MissingColumn(
                f"screening series missing {panel.start.advanced(i).label()} in {name}"
            )
        location_quotient(  # raises NonPositiveInput, naming the four inputs
            float(employment[i]),
            float(state_total[i]),
            float(national_industry[i]),
            float(national_total[i]),
        )
    with np.errstate(over="ignore"):  # a tiny screening value overflows to inf, as in floats
        return (employment / state_total) / (national_industry / national_total)


def _per_key(lines: str, keys) -> str:
    """``lines`` repeated once per key, with ``{key}`` replaced by the key."""
    return "".join([lines.replace("{key}", str(key)) for key in keys])


def _fill(template: str, values: np.ndarray) -> str:
    """Format ``values`` in row-major order into a template holding one
    ``%.6g`` per value; ``"%.6g" % v`` is exactly ``fmt6(v)``."""
    return template % tuple(values.ravel().tolist())


def _path_template(panel: PanelDataset, horizon: int, history: bool = True) -> str:
    """Template of a model's history rows (flag 0), unless ``history`` is
    false, then of its ``horizon`` forecast rows after the panel end (flag
    1), one per (quarter, variable), as in forecast.csv and plot.csv."""
    head = f"{panel.state},{panel.naics},{{key}},"
    ahead = "".join(f"{head}{name},%.6g,1\n" for name in VARIABLES)
    template = _per_key(ahead, panel.end.advanced(1).labels(horizon))
    if not history:
        return template
    past = "".join(f"{head}{name},%.6g,0\n" for name in VARIABLES)
    return _per_key(past, panel.start.labels(len(panel))) + template


def emit_plot_data(
    panel: PanelDataset, rows: np.ndarray, template: str, index_base: QuarterDate
) -> str:
    """One model's relative-series plot.csv rows: each of its forecast.csv
    ``rows`` (the levels, then the forecast path, filling ``template``)
    divided by the series' own level at ``index_base``."""
    if index_base < panel.start or index_base > panel.end:
        raise IndexBaseMissing(f"{panel.state}/{panel.naics} lacks {index_base.label()}")
    return _fill(template, rows / rows[index_base.quarters_since(panel.start)])


# One builder per report: each returns one model's rows of that report as
# text. ``run`` writes them into the bundle; each stage command prints them.


def _line(panel: PanelDataset, *fields) -> str:
    return ",".join(map(str, (panel.state, panel.naics) + fields)) + "\n"


def summary_lines(panel: PanelDataset) -> str:
    return "".join(
        _line(panel, name, s["n"], fmt3(s["mean"]), fmt3(s["sd"]), fmt3(s["min"]), fmt3(s["max"]))
        for name, s in summarize(panel).items()
    )


def lq_lines(panel: PanelDataset, lq: np.ndarray) -> str:
    template = _per_key(
        f"{panel.state},{panel.naics},{{key}},%.6g\n", panel.start.labels(len(panel))
    )
    return _fill(template, lq)


def adf_lines(panel: PanelDataset, lag: int = ADF_LAG, deterministic: str = ADF_CASE) -> str:
    """One row per variable; an error names the first variable that fails."""
    stats, cvs = adf_tests(panel.levels, lag, deterministic, VARIABLES)
    cv = [fmt6(cvs[level]) for level in (0.01, 0.05, 0.10)]
    return "".join(
        _line(panel, name, fmt6(stat), *cv, int(stat < cvs[0.05]))
        for name, stat in zip(VARIABLES, stats.tolist())
    )


def lags_lines(panel: PanelDataset, sel: LagSelection) -> str:
    """One row per lag; ``chosen_flags`` names the AIC, FPE and LR picks of that lag."""
    # Lag 0 has no likelihood-ratio test.
    lr = [("", "")] + [(fmt6(x), fmt6(p)) for x, p in zip(sel.lr_statistic, sel.lr_pvalue)]
    lines = []
    for lag in range(sel.max_lag + 1):
        criteria = (sel.log_lik[lag], sel.aic[lag], sel.fpe[lag], sel.hqic[lag], sel.sbic[lag])
        chosen = "+".join(name for name in ("aic", "fpe", "lr") if sel.chosen[name] == lag)
        lines.append(_line(panel, lag, *map(fmt6, criteria), *lr[lag], chosen))
    return "".join(lines)


def johansen_lines(panel: PanelDataset, jres: JohansenResult) -> str:
    return "".join(
        _line(
            panel, jres.k, jres.case.short, r, fmt6(jres.eigenvalues[r]), fmt6(jres.trace_stats[r]),
            fmt6(jres.trace_cv5[r]), fmt6(jres.max_eig_stats[r]), jres.selected_rank,
        )
        for r in range(len(jres.eigenvalues))
    )


def lm_lines(panel: PanelDataset, fit: VecmFit) -> str:
    stats, pvalues = lm_autocorrelation(fit, LM_LAGS)
    dof = fit.n * fit.n
    return "".join(
        _line(panel, lag, fmt6(stat), dof, fmt6(p))
        for lag, (stat, p) in enumerate(zip(stats, pvalues), start=1)
    )


def normality_lines(panel: PanelDataset, fit: VecmFit) -> str:
    """One row per equation, then the joint ``ALL`` row, which has no skew or kurt."""
    skews, kurts, stats, pvalues = normality_tests(fit)
    n = len(skews)
    names = [f"D_{name}" for name in VARIABLES] + ["ALL"]
    skew = [*map(fmt6, skews), ""]
    kurt = [*map(fmt6, kurts), ""]

    def test(i: int, j: int) -> tuple:
        # Row i's column j: 0 skewness, 1 kurtosis, 2 Jarque-Bera.
        dof = NORMALITY_DOF[j] * (n if i == n else 1)
        return fmt6(stats[i, j]), dof, fmt6(pvalues[i, j])

    return "".join(
        _line(panel, names[i], *test(i, 2), skew[i], *test(i, 0), kurt[i], *test(i, 1))
        for i in range(n + 1)
    )


def forecast_lines(panel: PanelDataset, path: np.ndarray) -> str:
    """The forecast path's rows (flag 1), dated from the quarter after the
    panel end; forecast.csv in ``run`` also holds the history rows."""
    return _fill(_path_template(panel, len(path), history=False), path)


def irf_lines(panel: PanelDataset, theta: np.ndarray) -> str:
    # Rows run over h, then shock, then response: theta[h].T in row-major order.
    per_h = "".join(
        f"{panel.state},{panel.naics},{{key}},{shock},{resp},%.6g\n"
        for shock in VARIABLES
        for resp in VARIABLES
    )
    return _fill(_per_key(per_h, range(len(theta))), theta.transpose(0, 2, 1))


def backtest_lines(panel: PanelDataset, rmse: np.ndarray, mape: np.ndarray) -> str:
    return "".join(
        _line(panel, name, fmt6(rmse[j]), fmt6(mape[j])) for j, name in enumerate(VARIABLES)
    )


def load_panel(data_dir: str, state: str, naics: int) -> PanelDataset:
    path = os.path.join(data_dir, "panels", f"{state}_{naics}.csv")
    return ingest_panel(path, state=state, naics=naics)


def resolve_model(
    x: np.ndarray, model: ModelConfig, defaults: RunDefaults, aic_lag: int | None = None
) -> tuple[ModelSpec, JohansenResult]:
    """The spec (k, r and case) of one model with levels ``x``, and the rank
    test at that k and case. Each is the model's own setting if it has one;
    else k is the AIC lag choice (``aic_lag``, or a new lag selection), r
    the rank the test selects and the case the default one."""
    k = model.k
    if k is None:
        if aic_lag is None:
            aic_lag = select_lags(x, max_lag=defaults.max_lag).chosen["aic"]
        k = max(1, aic_lag)
    jres = johansen_test(x, k, model.case or defaults.johansen_case)
    r = jres.selected_rank if model.r is None else model.r
    return ModelSpec(k=k, r=r, case=jres.case), jres


@dataclass
class ModelOutput:
    """One model's results. ``lines`` maps each report to the model's text
    until ``run_pipeline`` appends it to the bundle and clears it.
    ``stages`` maps each stage entered, in order, to its seconds; ``stage``
    is the stage last entered, and after a failure the stage that failed.
    ``spec`` is the model's resolved spec, once its rank test has run, and
    ``lag_choice`` maps each lag selection criterion to the lag it picks.
    A forked worker sends it back to the calling process as one pickle
    record when the model ends."""

    model: ModelConfig
    status: str = "ok"
    message: str = ""
    error_type: str = ""
    stage: str = ""
    stages: dict[str, float] = field(default_factory=dict)
    spec: ModelSpec | None = None
    lag_choice: dict[str, int] = field(default_factory=dict)
    lines: dict[str, str] = field(default_factory=dict)

    @contextlib.contextmanager
    def timed(self, stage: str):
        """Run one stage, adding its seconds to ``stages``."""
        self.stage = stage
        started = time.perf_counter()
        try:
            yield
        finally:
            self.stages[stage] = time.perf_counter() - started

    def fail(self, exc: Exception, stage: str = "") -> None:
        """Record the model's first failure, in ``stage`` or else in the
        stage last entered; the rows already built stay."""
        if self.status == "ok":
            self.status = "error"
            self.stage = stage or self.stage
            self.error_type = type(exc).__name__
            self.message = f"{self.error_type}: {exc}"


def _run_model(
    out: ModelOutput, panel: PanelDataset, config: RunConfig, aux: dict, index_base: QuarterDate
) -> None:
    """Run every stage after ingest on ``panel``, recording into ``out``;
    the plot rows divide by the levels at ``index_base``."""
    lines = out.lines
    defaults = config.defaults
    timed = out.timed
    plot_error = None
    try:
        with timed("lq"):
            lq = lq_records_for_panel(panel, aux)
            lines["lq.csv"] = lq_lines(panel, lq)
            mean_lq, significant = lq_flag(lq, defaults.lq_threshold)
            lines["lq_flags.csv"] = _line(panel, fmt6(mean_lq), int(significant))
        with timed("summary"):
            lines["summary.csv"] = summary_lines(panel)
        with timed("adf"):
            lines["adf.csv"] = adf_lines(panel)

        x = panel.levels
        with timed("lags"):
            selection = select_lags(x, max_lag=defaults.max_lag)
            lines["lags.csv"] = lags_lines(panel, selection)
            out.lag_choice = selection.chosen

        with timed("johansen"):
            spec, jres = resolve_model(x, out.model, defaults, selection.chosen["aic"])
            lines["johansen.csv"] = johansen_lines(panel, jres)
            out.spec = spec
        with timed("fit"):
            fit = fit_vecm(x, spec, jres)
        with timed("lm"):
            lines["lm.csv"] = lm_lines(panel, fit)
        with timed("normality"):
            lines["normality.csv"] = normality_lines(panel, fit)

        with timed("forecast"):
            template = _path_template(panel, defaults.horizon)
            rows = np.concatenate((x, forecast(fit, x[-spec.k :], defaults.horizon)))
            lines["forecast.csv"] = _fill(template, rows)
            try:
                lines["plot.csv"] = emit_plot_data(panel, rows, template, index_base)
            except IndexBaseMissing as exc:
                plot_error = exc  # the model's other rows are still built
        with timed("irf"):
            lines["irf.csv"] = irf_lines(panel, irf(fit, defaults.horizon))

        if defaults.holdout_start is not None:
            with timed("backtest"):
                rmse, mape = backtest(panel, spec, defaults.holdout_start)
                lines["backtest.csv"] = backtest_lines(panel, rmse, mape)
    except Exception as exc:
        out.fail(exc)
    # Recorded after the later stages ran: a failure of theirs is the one
    # named, and entering them cannot overwrite the stage "plot".
    if plot_error is not None:
        out.fail(plot_error, "plot")


def _worker_count(models: int) -> int:
    """How many processes run a bundle of ``models`` models: one per CPU
    this process may run on, at most one per model. One where ``os.fork``
    or ``os.sched_getaffinity`` does not exist, and where the caller runs
    more than one thread, since forking a threaded process can deadlock."""
    if (
        not hasattr(os, "fork")
        or not hasattr(os, "sched_getaffinity")
        or threading.active_count() > 1
    ):
        return 1
    return min(len(os.sched_getaffinity(0)), models)


def _read_panels(outputs: list[ModelOutput], data_dir: str) -> dict:
    """The panels of ``outputs``' models that can be read, by model; a
    model whose panel cannot be read fails in stage "ingest"."""
    panels = {}
    for o in outputs:
        try:
            with o.timed("ingest"):
                panels[o.model] = load_panel(data_dir, o.model.state, o.model.naics)
        except Exception as exc:
            o.fail(exc)
    return panels


def _serve(outputs: list[ModelOutput], config, aux, exchange: int, fd: int) -> None:
    """A forked worker's work: read the panels of ``outputs``' models, send
    their starts as the first pickle record on the pipe ``fd``, and read
    plot.csv's base from ``exchange``, leaving if it ends unsent. Then run
    each model, sending its ``ModelOutput`` as one record as it ends. A
    BaseException that escapes is sent as the last record instead."""
    with os.fdopen(fd, "wb") as pipe:
        try:
            panels = _read_panels(outputs, config.data_dir)
            pickle.dump([p.start for p in panels.values()], pipe)
            pipe.flush()
            message = os.read(exchange, 8)
            if not message:
                return
            # A worker that read no panel gets -1, and never uses it.
            index_base = QuarterDate.from_index(int.from_bytes(message, "little", signed=True))
            for o in outputs:
                if o.model in panels:
                    _run_model(o, panels.pop(o.model), config, aux, index_base)
                pickle.dump(o, pipe)
                pipe.flush()
                o.lines.clear()
        except BaseException as exc:
            pickle.dump(exc, pipe)


def _start_worker(children: dict, exchange: tuple[int, int], *work) -> None:
    """Fork a worker that runs ``_serve(*work, exchange[0], fd)``, ``fd``
    being the write end of its own pipe, sized to 1 MiB where Linux allows
    so that the worker can run ahead of the caller's reading, and register
    it in ``children``, its pid mapped to the read end. The worker closes
    its copy of the exchange's write end, so that the exchange ends when
    the caller does. The worker always leaves through ``os._exit``:
    it never unwinds into the caller's frames, nor flushes the caller's
    inherited stdio buffers. SIGINT is blocked from before the fork until
    the worker is registered, so an interrupt can neither leave a worker
    unregistered nor reach one before its ``finally``."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        read_end, write_end = os.pipe()
        if hasattr(fcntl, "F_SETPIPE_SZ"):
            with contextlib.suppress(OSError):  # above the system's cap or quota
                fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 1 << 20)
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            raise
        if pid == 0:
            status = 1
            try:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                os.close(read_end)
                os.close(exchange[1])
                _serve(*work, exchange[0], write_end)
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        children[pid] = os.fdopen(read_end, "rb")
    except OSError as exc:
        raise WorkerFailed(f"cannot start a worker process: {exc.strerror or exc}") from exc
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _receive(o: ModelOutput, pid: int, children: dict):
    """The next record of worker ``pid``, which runs ``o``'s model next,
    raising the exception that escaped the worker if the record is one. A
    worker that ended before sending the record is reaped, and the run
    ends as ``WorkerFailed``."""
    try:
        record = pickle.load(children[pid])
    except (EOFError, pickle.UnpicklingError) as exc:
        children.pop(pid).close()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise WorkerFailed(
            f"the worker running {o.model.state}/{o.model.naics} ended ({how}) "
            "before sending its results"
        ) from exc
    if isinstance(record, BaseException):
        raise record
    return record


def _remove_temp_files(temp: dict[str, str]) -> None:
    """Delete this run's temp files, those that exist."""
    for path in temp.values():
        with contextlib.suppress(OSError):
            os.remove(path)


def run_pipeline(config: RunConfig) -> RunManifest:
    """Execute every configured model, write the report bundle, and return
    the manifest object written as manifest.json.

    The models, in report order (state, naics), are dealt to
    ``_worker_count`` processes: model i runs in worker i mod W, where
    worker 0 is this process and the others are forked before any panel
    is read. Each process reads its own models' panels. plot.csv's base
    quarter is the latest start among them: each worker sends its starts,
    and this process sends the base back, before their first model. Each
    model's rows, plot.csv's included, are appended to temp
    files in ``out_dir`` (``.<report>.tmp``) strictly in report order, so
    this process holds one model's text at a time, its own or a received
    one; a worker never opens a report file. Once every report and the
    manifest are written, each temp file is renamed onto its report, a
    report this run does not write is removed, and the manifest is renamed
    last. Meanwhile the run holds an exclusive ``flock`` on ``out_dir``,
    taken after creating it, and a second run into it waits; without
    ``fcntl`` (Windows) no lock is taken. Holding it, the run first deletes
    any of its temp names that a run killed outright left. If anything
    escapes (an interrupt, a failed write, an exception a worker sends
    back), every worker still running is killed and reaped, the temp files
    are deleted if the lock was taken, and the previous bundle stays as it
    was. An ``OSError`` from creating or locking ``out_dir``, writing a
    temp file or renaming one ends the run as ``OutputUnwritable``, naming
    the path; a worker that cannot be started or dies before sending a
    model's results ends it as ``WorkerFailed``. Every worker is reaped
    before the run returns.

    ``timings.writeSeconds`` is the time spent writing and closing the
    reports' temp files; the manifest's own write and the renames come
    after it is taken. ``timings.workers`` lists each process, this one
    first, with its models, the CPU seconds it spent on the run and its
    peak RSS.
    """
    started = time.perf_counter()
    cpu_started = time.process_time()
    if not os.path.isdir(config.data_dir):
        raise DataDirMissing(config.data_dir)
    if not config.models:
        raise ConfigInvalid("models must be a nonempty list")
    aux = load_aux_series(
        config.data_dir,
        (m.state for m in config.models),
        (m.naics for m in config.models),
    )

    # A leading dot keeps a temp name off every report and a user's files.
    temp = {
        name: os.path.join(config.out_dir, f".{name}.tmp")
        for name in (*REPORT_HEADERS, "manifest.json")
    }
    handles = {}  # report -> its temp file, opened when its first text arrives
    children = {}  # pid -> the read end of its pipe, until the worker is reaped
    write_seconds = 0.0
    lock = None  # an fd on out_dir, which flock holds until it is closed
    locked = False
    try:
        os.makedirs(config.out_dir, exist_ok=True)
        if fcntl is not None:
            lock = os.open(config.out_dir, os.O_RDONLY)
            fcntl.flock(lock, fcntl.LOCK_EX)  # waits while another run holds it
        locked = True
        _remove_temp_files(temp)  # those of a run killed outright
        with contextlib.ExitStack() as stack:

            def append(report: str, text: str) -> None:
                nonlocal write_seconds
                write_started = time.perf_counter()
                fh = handles.get(report)
                if fh is None:
                    fh = handles[report] = stack.enter_context(
                        open(temp[report], "w", newline="")
                    )
                    fh.write(",".join(REPORT_HEADERS[report]) + "\n")
                fh.write(text)
                write_seconds += time.perf_counter() - write_started

            outputs = [
                ModelOutput(m) for m in sorted(config.models, key=lambda m: (m.state, m.naics))
            ]
            count = _worker_count(len(outputs))
            exchange = os.pipe() if count > 1 else ()
            for fd in exchange:
                stack.callback(os.close, fd)
            for w in range(1, count):
                _start_worker(children, exchange, outputs[w::count], config, aux)
            workers = list(children)  # the pid of worker 1, 2, ...
            panels = _read_panels(outputs[::count], config.data_dir)
            # plot.csv's base: the latest start among the panels read here
            # and in the workers, to each of which it is sent as 8 bytes.
            starts = [p.start for p in panels.values()]
            for w, pid in enumerate(workers, 1):
                starts += _receive(outputs[w], pid, children)
            index_base = max(starts, default=None)
            if workers:
                index = -1 if index_base is None else index_base.index
                os.write(exchange[1], index.to_bytes(8, "little", signed=True) * len(workers))
            for i, o in enumerate(outputs):
                if i % count:
                    o = outputs[i] = _receive(o, workers[i % count - 1], children)
                elif o.model in panels:
                    _run_model(o, panels.pop(o.model), config, aux, index_base)
                for report, text in o.lines.items():
                    append(report, text)
                o.lines.clear()
            closing = time.perf_counter()
        # Closing the temp files flushes their last rows.
        write_seconds += time.perf_counter() - closing

        # (CPU seconds, peak RSS in kB, as Linux gives ru_maxrss) of each
        # process, this one first.
        usage = [
            (
                time.process_time() - cpu_started,
                None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            )
        ]
        for pid in workers:
            _, _, rusage = os.wait4(pid, 0)
            children.pop(pid).close()
            usage.append((rusage.ru_utime + rusage.ru_stime, rusage.ru_maxrss))

        models = []
        for o in sorted(outputs, key=lambda o: (o.model.naics, o.model.state)):
            entry = {"state": o.model.state, "naics": o.model.naics, "status": o.status}
            if o.spec is not None:
                entry.update(k=o.spec.k, r=o.spec.r, case=o.spec.case.short)
            if o.status == "ok":
                entry["lagChoice"] = o.lag_choice
            else:
                entry.update(message=o.message, stage=o.stage, errorType=o.error_type)
            models.append(entry)

        manifest = RunManifest(
            configHash=config.config_hash,
            models=models,
            files=sorted(handles),
            timings={
                "totalSeconds": round(time.perf_counter() - started, 3),
                "perModel": {  # the sum of the model's stage times
                    f"{o.model.state}_{o.model.naics}": round(sum(o.stages.values()), 3)
                    for o in outputs
                },
                # Stages take tens to hundreds of µs, which 3 decimals would round to 0.
                "perStage": {
                    f"{o.model.state}_{o.model.naics}": {
                        stage: round(seconds, 6) for stage, seconds in o.stages.items()
                    }
                    for o in outputs
                },
                "writeSeconds": round(write_seconds, 6),
                "workers": [
                    {
                        "models": [f"{o.model.state}_{o.model.naics}" for o in outputs[w::count]],
                        "cpuSeconds": round(cpu, 3),
                        "peakRssMb": None if rss is None else round(rss / 1024, 2),
                    }
                    for w, (cpu, rss) in enumerate(usage)
                ],
            },
            environment={
                "blasThreads": blas_threads(),
                "cointegra": __version__,
                "lapack": LAPACK,
                "numpy": np.__version__,
            },
            # plot.csv's base quarter; None if no panel was read
            plotBase=None if index_base is None else index_base.label(),
        )
        with open(temp["manifest.json"], "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

        # A report this run does not write is removed, so the bundle never
        # mixes two runs.
        for report in REPORT_HEADERS:
            target = os.path.join(config.out_dir, report)
            if report in handles:
                os.replace(temp[report], target)
            else:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(target)
        os.replace(temp["manifest.json"], os.path.join(config.out_dir, "manifest.json"))
    except BaseException as exc:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        # Until this run holds the lock, the temp files are another run's.
        if locked:
            _remove_temp_files(temp)
        if isinstance(exc, OSError):
            # A rename names its target; a failed write names no file.
            path = exc.filename2 or exc.filename or config.out_dir
            raise OutputUnwritable(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise
    finally:
        if lock is not None:
            os.close(lock)
    return manifest
