"""Full-workflow orchestration.

Loads a JSON run configuration, executes the stage chain (ingest, location
quotients, unit-root tests, lag selection, cointegration rank, VECM fit,
residual diagnostics, forecast, backtest, impulse responses) for every
configured model, and writes one report bundle. Models run one after
another; failures are recorded per model and never abort the run. Given the
same configuration, data, and seed, the report CSVs are byte-identical
across runs; manifest timings are the only varying output.

Reports are held as text: small reports as one line per row, the large
ones (lq, forecast, irf, plot) as one block per model, filled from a
``%.6g`` template in a single formatting call. No field ever needs CSV
quoting: states and naics are validated, and every other field is a
quarter label, a variable name or a formatted number.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import lm_autocorrelation, normality_tests
from .errors import ConfigInvalid, DataDirMissing, IndexBaseMissing, MissingColumn
from .johansen import DeterministicCase, johansen_test
from .lagselect import select_lags
from .panel import (
    VARIABLES,
    LqRecord,
    PanelDataset,
    ingest_panel,
    location_quotient,
    lq_significance,
    read_cell,
    summarize,
)
from .quarters import QuarterDate
from .unitroot import adf_test
from .vecm import ForecastPath, ModelSpec, backtest, fit_vecm, forecast, irf

SUPPORTED_STATES = ("AL", "AR", "ME", "MS", "OR", "WI")
SUPPORTED_NAICS = (113, 321, 322)

# Cases the estimator accepts; trend cases are report-only elsewhere.
FIT_CASES = ("none", "restrictedConstant", "unrestrictedConstant")

# Fixed stage settings not exposed through the configuration schema.
ADF_LAG = 4
ADF_CASE = "constant"
LM_LAGS = 4


@dataclass(frozen=True)
class ModelConfig:
    state: str
    naics: int
    k: int | None = None
    r: int | None = None
    case: str | None = None


@dataclass(frozen=True)
class RunDefaults:
    max_lag: int = 4
    horizon: int = 20
    holdout_start: QuarterDate | None = None
    johansen_case: str = "restrictedConstant"
    lq_threshold: float = 1.0


@dataclass(frozen=True)
class RunConfig:
    data_dir: str
    out_dir: str
    models: tuple[ModelConfig, ...]
    defaults: RunDefaults
    seed: int
    config_hash: str


@dataclass
class RunManifest:
    config_hash: str
    models: list[dict]
    files: list[str]
    timings: dict

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


def _parse_case(value, where: str) -> str:
    try:
        case = DeterministicCase.parse(value)
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc
    if case.value not in FIT_CASES:
        raise ConfigInvalid(f"{where}: case {case.value!r} is not estimable")
    return case.value


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
    if not isinstance(obj["models"], list) or not obj["models"]:
        raise ConfigInvalid("models must be a nonempty list")

    models = []
    for entry in obj["models"]:
        if not isinstance(entry, dict):
            raise ConfigInvalid("each model must be an object")
        _require_keys(entry, {"state", "naics", "k", "r", "case"}, {"state", "naics"}, "model")
        state, naics = entry["state"], entry["naics"]
        if state not in SUPPORTED_STATES:
            raise ConfigInvalid(f"unsupported state {state!r}")
        if naics not in SUPPORTED_NAICS:
            raise ConfigInvalid(f"unsupported naics {naics!r}")
        k = entry.get("k")
        r = entry.get("r")
        if k is not None and (not isinstance(k, int) or k < 1):
            raise ConfigInvalid(f"model {state}/{naics}: k must be a positive integer")
        if r is not None and (not isinstance(r, int) or r < 0):
            raise ConfigInvalid(f"model {state}/{naics}: r must be a nonnegative integer")
        case = entry.get("case")
        if case is not None:
            case = _parse_case(case, f"model {state}/{naics}")
        models.append(ModelConfig(state=state, naics=naics, k=k, r=r, case=case))
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
    if not isinstance(max_lag, int) or max_lag < 1:
        raise ConfigInvalid("maxLag must be a positive integer")
    if not isinstance(horizon, int) or horizon < 1:
        raise ConfigInvalid("horizon must be a positive integer")
    holdout = raw_defaults.get("holdoutStart")
    if holdout is not None:
        try:
            holdout = QuarterDate.parse(holdout)
        except (ValueError, TypeError) as exc:
            raise ConfigInvalid(f"bad holdoutStart: {exc}") from exc
    johansen_case = _parse_case(raw_defaults.get("johansenCase", "restrictedConstant"), "defaults")
    lq_threshold = raw_defaults.get("lqThreshold", 1.0)
    if not isinstance(lq_threshold, (int, float)) or isinstance(lq_threshold, bool):
        raise ConfigInvalid("lqThreshold must be a number")

    seed = obj.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
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
        config_hash=hashlib.sha256(canonical).hexdigest(),
    )


def load_config(path: str, out_dir: str | None = None, seed: int | None = None) -> RunConfig:
    """Read and validate a config file; overrides replace the raw fields
    before hashing so the manifest hash reflects the effective run."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config: {exc}") from exc
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
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or {"year", "quarter", "value"} - set(reader.fieldnames):
            raise MissingColumn(f"{path}: expected columns year,quarter,value")
        values = {}
        for i, row in enumerate(reader):
            key = (read_cell(row, "year", i, int), read_cell(row, "quarter", i, int))
            values[key] = read_cell(row, "value", i)
        return values


def load_aux_series(data_dir: str, states, naics_codes) -> dict:
    """Employment series for LQ screening, keyed by kind."""
    aux_dir = os.path.join(data_dir, "aux")
    out = {
        "national_total": _read_value_series(os.path.join(aux_dir, "national_total.csv")),
        "state_total": {},
        "national_industry": {},
    }
    for state in sorted(set(states)):
        out["state_total"][state] = _read_value_series(
            os.path.join(aux_dir, f"state_total_{state}.csv")
        )
    for naics in sorted(set(naics_codes)):
        out["national_industry"][naics] = _read_value_series(
            os.path.join(aux_dir, f"national_industry_{naics}.csv")
        )
    return out


def lq_records_for_panel(panel: PanelDataset, aux: dict) -> list[LqRecord]:
    state_total = aux["state_total"][panel.state]
    national_industry = aux["national_industry"][panel.naics]
    national_total = aux["national_total"]
    records = []
    for i, when in enumerate(panel.employment.quarters()):
        key = (when.year, when.quarter)
        if key not in state_total or key not in national_industry or key not in national_total:
            raise MissingColumn(f"screening series missing {when.label()}")
        records.append(
            LqRecord(
                state=panel.state,
                naics=panel.naics,
                quarter=when,
                lq=location_quotient(
                    float(panel.employment.values[i]),
                    state_total[key],
                    national_industry[key],
                    national_total[key],
                ),
            )
        )
    return records


def _quarter_labels(first: QuarterDate, count: int) -> list[str]:
    """Labels of ``count`` consecutive quarters starting at ``first``."""
    idx = first.year * 4 + first.quarter - 1
    return [f"{i // 4}Q{i % 4 + 1}" for i in range(idx, idx + count)]


def _per_key(lines: str, keys) -> str:
    """``lines`` repeated once per key, with ``{key}`` replaced by the key."""
    return "".join([lines.replace("{key}", str(key)) for key in keys])


def _fill(template: str, values: np.ndarray) -> str:
    """Format ``values`` in row-major order into a template holding one
    ``%.6g`` per value; ``"%.6g" % v`` is exactly ``fmt6(v)``."""
    return template % tuple(values.ravel().tolist())


def _path_template(panel: PanelDataset, path: ForecastPath) -> str:
    """Template of a model's history rows (flag 0) then its forecast rows
    (flag 1), one per (quarter, variable), as in forecast.csv and plot.csv."""
    head = f"{panel.state},{panel.naics},{{key}},"
    history = "".join(f"{head}{name},%.6g,0\n" for name in VARIABLES)
    ahead = "".join(f"{head}{name},%.6g,1\n" for name in VARIABLES)
    return _per_key(history, _quarter_labels(panel.start, len(panel))) + _per_key(
        ahead, _quarter_labels(path.origin.advanced(1), path.horizon)
    )


def emit_plot_data(
    forecasts: list[ForecastPath],
    panels: list[PanelDataset],
    index_base: QuarterDate,
) -> list[str]:
    """Relative-series plot.csv text, one block per model: every value
    divided by the series' own level at ``index_base``; history rows
    tagged 0, forecast rows 1."""
    blocks = []
    for path, panel in zip(forecasts, panels):
        if index_base < panel.start or index_base > panel.end:
            raise IndexBaseMissing(f"{panel.state}/{panel.naics} lacks {index_base.label()}")
        levels = panel.matrix()
        base = levels[index_base.quarters_since(panel.start)]
        values = np.concatenate((levels / base, path.values / base))
        blocks.append(_fill(_path_template(panel, path), values))
    return blocks


@dataclass
class ModelOutput:
    """One model's results; ``lines`` holds each report's text in chunks
    of whole lines: one line per ``add``, one block per ``add_block``."""

    model: ModelConfig
    status: str = "ok"
    message: str = ""
    spec_used: dict = field(default_factory=dict)
    lines: dict[str, list[str]] = field(default_factory=dict)
    panel: PanelDataset | None = None
    forecast_path: ForecastPath | None = None
    seconds: float = 0.0

    def add(self, report: str, row: tuple[str, ...]) -> None:
        self.lines.setdefault(report, []).append(",".join(row) + "\n")

    def add_block(self, report: str, template: str, values: np.ndarray) -> None:
        self.lines.setdefault(report, []).append(_fill(template, values))


def _run_model(model: ModelConfig, config: RunConfig, aux: dict) -> ModelOutput:
    out = ModelOutput(model=model)
    started = time.perf_counter()
    state, naics = model.state, model.naics
    ident = (state, str(naics))
    head = f"{state},{naics},"
    try:
        panel_path = os.path.join(config.data_dir, "panels", f"{state}_{naics}.csv")
        panel = ingest_panel(panel_path, state=state, naics=naics)
        out.panel = panel

        records = lq_records_for_panel(panel, aux)
        out.add_block(
            "lq.csv",
            _per_key(f"{head}{{key}},%.6g\n", _quarter_labels(panel.start, len(panel))),
            np.array([rec.lq for rec in records]),
        )
        flag = lq_significance(records, config.defaults.lq_threshold)[0]
        out.add(
            "lq_flags.csv",
            ident + (fmt6(flag.mean_lq), "1" if flag.significant else "0"),
        )

        for name, stats in summarize(panel).items():
            out.add(
                "summary.csv",
                ident
                + (
                    name,
                    str(stats["n"]),
                    fmt3(stats["mean"]),
                    fmt3(stats["sd"]),
                    fmt3(stats["min"]),
                    fmt3(stats["max"]),
                ),
            )

        for name in VARIABLES:
            adf = adf_test(panel.series(name).values, ADF_LAG, ADF_CASE)
            out.add(
                "adf.csv",
                ident
                + (
                    name,
                    fmt6(adf.statistic),
                    fmt6(adf.critical_values[0.01]),
                    fmt6(adf.critical_values[0.05]),
                    fmt6(adf.critical_values[0.10]),
                    "1" if adf.reject_at_5pct else "0",
                ),
            )

        selection = select_lags(panel, max_lag=config.defaults.max_lag)
        for stats in selection.per_lag:
            flags = "+".join(
                sorted(
                    key.removeprefix("by").lower()
                    for key, lag in selection.chosen.items()
                    if lag == stats.lag
                )
            )
            out.add(
                "lags.csv",
                ident
                + (
                    str(stats.lag),
                    fmt6(stats.log_lik),
                    fmt6(stats.aic),
                    fmt6(stats.fpe),
                    fmt6(stats.hqic),
                    fmt6(stats.sbic),
                    "" if stats.lr_statistic is None else fmt6(stats.lr_statistic),
                    "" if stats.lr_pvalue is None else fmt6(stats.lr_pvalue),
                    flags,
                ),
            )

        case = model.case or config.defaults.johansen_case
        k = model.k if model.k is not None else max(1, selection.chosen["byAic"])
        levels = panel.matrix()
        jres = johansen_test(levels, k, case)
        case_short = DeterministicCase.parse(case).short
        for r in range(len(jres.eigenvalues)):
            out.add(
                "johansen.csv",
                ident
                + (
                    str(k),
                    case_short,
                    str(r),
                    fmt6(jres.eigenvalues[r]),
                    fmt6(jres.trace_stats[r]),
                    fmt6(jres.critical_values_5pct["trace"][r]),
                    fmt6(jres.max_eig_stats[r]),
                    str(jres.selected_rank),
                ),
            )

        r = model.r if model.r is not None else jres.selected_rank
        out.spec_used = {"k": k, "r": r, "case": case_short}
        fit = fit_vecm(panel, ModelSpec(k=k, r=r, case=case), jres)

        for lm in lm_autocorrelation(fit, LM_LAGS):
            out.add(
                "lm.csv",
                ident + (str(lm.lag), fmt6(lm.statistic), str(lm.dof), fmt6(lm.pvalue)),
            )
        report = normality_tests(fit)
        for eq in report.per_equation:
            out.add(
                "normality.csv",
                ident
                + (
                    eq.equation,
                    fmt6(eq.jb.stat),
                    str(eq.jb.dof),
                    fmt6(eq.jb.pvalue),
                    fmt6(eq.skew),
                    fmt6(eq.skew_test.stat),
                    str(eq.skew_test.dof),
                    fmt6(eq.skew_test.pvalue),
                    fmt6(eq.kurtosis),
                    fmt6(eq.kurtosis_test.stat),
                    str(eq.kurtosis_test.dof),
                    fmt6(eq.kurtosis_test.pvalue),
                ),
            )
        out.add(
            "normality.csv",
            ident
            + (
                "ALL",
                fmt6(report.joint_jb.stat),
                str(report.joint_jb.dof),
                fmt6(report.joint_jb.pvalue),
                "",
                fmt6(report.joint_skew.stat),
                str(report.joint_skew.dof),
                fmt6(report.joint_skew.pvalue),
                "",
                fmt6(report.joint_kurtosis.stat),
                str(report.joint_kurtosis.dof),
                fmt6(report.joint_kurtosis.pvalue),
            ),
        )

        path = forecast(fit, levels[-k:], config.defaults.horizon, origin=panel.end)
        out.forecast_path = path
        out.add_block(
            "forecast.csv", _path_template(panel, path), np.concatenate((levels, path.values))
        )

        # Rows run over h, then shock, then response: theta[h].T in row-major order.
        responses = irf(fit, config.defaults.horizon)
        per_h = "".join(
            f"{head}{{key}},{shock},{resp},%.6g\n" for shock in VARIABLES for resp in VARIABLES
        )
        out.add_block(
            "irf.csv",
            _per_key(per_h, range(len(responses.responses))),
            np.stack(responses.responses).transpose(0, 2, 1),
        )

        if config.defaults.holdout_start is not None:
            bt = backtest(panel, ModelSpec(k=k, r=r, case=case), config.defaults.holdout_start)
            for name in VARIABLES:
                out.add(
                    "backtest.csv",
                    ident
                    + (
                        name,
                        fmt6(bt.metrics[name]["rmse"]),
                        fmt6(bt.metrics[name]["mape"]),
                    ),
                )
    except Exception as exc:
        out.status = "error"
        out.message = f"{type(exc).__name__}: {exc}"
    out.seconds = time.perf_counter() - started
    return out


def run_pipeline(config: RunConfig) -> RunManifest:
    """Execute every configured model and write the report bundle."""
    started = time.perf_counter()
    if not os.path.isdir(config.data_dir):
        raise DataDirMissing(config.data_dir)
    if not config.models:
        raise ConfigInvalid("models must be a nonempty list")
    aux = load_aux_series(
        config.data_dir,
        (m.state for m in config.models),
        (m.naics for m in config.models),
    )

    outputs = [_run_model(m, config, aux) for m in config.models]
    outputs.sort(key=lambda o: (o.model.state, o.model.naics))

    # Relative plot series, indexed at the latest common start quarter.
    finished = [o for o in outputs if o.panel is not None and o.forecast_path is not None]
    if finished:
        index_base = max(o.panel.start for o in finished)
        plot_lines = emit_plot_data(
            [o.forecast_path for o in finished],
            [o.panel for o in finished],
            index_base,
        )
    else:
        plot_lines = []

    os.makedirs(config.out_dir, exist_ok=True)
    files = []
    for report, header in REPORT_HEADERS.items():
        if report == "plot.csv":
            lines = plot_lines
        else:
            lines = [line for o in outputs for line in o.lines.get(report, [])]
        if not lines:
            continue
        with open(os.path.join(config.out_dir, report), "w", newline="") as fh:
            fh.write(",".join(header) + "\n" + "".join(lines))
        files.append(report)

    models = []
    for o in sorted(outputs, key=lambda o: (o.model.naics, o.model.state)):
        entry = {"state": o.model.state, "naics": o.model.naics, "status": o.status}
        if o.status == "ok":
            entry.update(o.spec_used)
        else:
            entry["message"] = o.message
        models.append(entry)

    manifest = RunManifest(
        config_hash=config.config_hash,
        models=models,
        files=sorted(files),
        timings={
            "totalSeconds": round(time.perf_counter() - started, 3),
            "perModel": {
                f"{o.model.state}_{o.model.naics}": round(o.seconds, 3) for o in outputs
            },
        },
    )
    with open(os.path.join(config.out_dir, "manifest.json"), "w") as fh:
        json.dump(
            {
                "configHash": manifest.config_hash,
                "models": manifest.models,
                "files": manifest.files,
                "timings": manifest.timings,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    return manifest
