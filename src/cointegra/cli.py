"""Command-line interface.

Every subcommand reads a JSON run configuration (--config, default
./config.json) for data locations and defaults, then applies its own
flags. Stage subcommands print CSV to stdout for one (state, naics)
model: exactly the rows ``run`` writes for that model, built by the same
functions. The model is the config's entry for (state, naics), if any, so
its own k, r and case apply unless --k, --r or --case override them. A bad
flag ends as ``error: …`` with exit status 2. ``run`` executes the full
pipeline for every configured model and writes the report bundle to the
output directory, the config's outDir unless ``run --out`` overrides it;
``run --seed`` overrides the config's seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .errors import CointegraError, ConfigInvalid
from .lagselect import select_lags
from .panel import VARIABLES, lq_flag
from .pipeline import (
    ADF_CASE, ADF_LAG, REPORT_HEADERS, RunConfig, adf_lines, backtest_lines, fmt6, forecast_lines,
    johansen_lines, lags_lines, lm_lines, load_aux_series, load_config, load_panel, lq_lines,
    lq_records_for_panel, model_config, normality_lines, parse_quarter, resolve_model,
    run_pipeline, summary_lines,
)
from .unitroot import DETERMINISTIC_CASES
from .vecm import backtest, fit_vecm, forecast


def _model_args(parser: argparse.ArgumentParser, with_spec: bool = False) -> None:
    parser.add_argument("--state", required=True)
    parser.add_argument("--naics", required=True, type=int)
    if with_spec:
        parser.add_argument("--k", type=int, default=None)
        parser.add_argument("--r", type=int, default=None)
        parser.add_argument("--case", default=None)


def _report(report: str, lines: str) -> str:
    return ",".join(REPORT_HEADERS[report]) + "\n" + lines


def _stage(config: RunConfig, args):
    """The panel and model of a stage command: the config's entry for
    (state, naics), if any, with --k, --r and --case overriding its fields."""
    fields = {"state": args.state, "naics": args.naics}
    for m in config.models:
        if (m.state, m.naics) == (args.state, args.naics):
            fields = dataclasses.asdict(m)
    for key in ("k", "r", "case"):
        if getattr(args, key, None) is not None:
            fields[key] = getattr(args, key)
    model = model_config(fields)
    return load_panel(config.data_dir, model.state, model.naics), model


def _spec(config: RunConfig, args):
    """The panel, resolved spec and rank test of a stage command's model."""
    panel, model = _stage(config, args)
    return (panel, *resolve_model(panel.levels, model, config.defaults))


def _cmd_ingest(config, args) -> int:
    panel, _ = _stage(config, args)
    print(
        f"ok {panel.state} {panel.naics} {len(panel)} quarters "
        f"{panel.start.label()}..{panel.end.label()}"
    )
    return 0


def _cmd_summarize(config, args) -> int:
    panel, _ = _stage(config, args)
    sys.stdout.write(_report("summary.csv", summary_lines(panel)))
    return 0


def _cmd_lq(config, args) -> int:
    panel, _ = _stage(config, args)
    aux = load_aux_series(config.data_dir, [panel.state], [panel.naics])
    lq = lq_records_for_panel(panel, aux)
    mean_lq, significant = lq_flag(lq, config.defaults.lq_threshold)
    sys.stdout.write(
        _report("lq.csv", lq_lines(panel, lq))
        + f"# mean_lq={fmt6(mean_lq)} significant={int(significant)}\n"
    )
    return 0


def _cmd_adf(config, args) -> int:
    if args.lag < 0:
        raise ConfigInvalid("--lag must be a nonnegative integer")
    if args.deterministic not in DETERMINISTIC_CASES:
        raise ConfigInvalid(f"--deterministic must be one of {DETERMINISTIC_CASES}")
    panel, _ = _stage(config, args)
    sys.stdout.write(_report("adf.csv", adf_lines(panel, args.lag, args.deterministic)))
    return 0


def _cmd_lags(config, args) -> int:
    max_lag = config.defaults.max_lag if args.max_lag is None else args.max_lag
    if max_lag < 1:
        raise ConfigInvalid("--max-lag must be a positive integer")
    panel, _ = _stage(config, args)
    selection = select_lags(panel.levels, max_lag=max_lag)
    sys.stdout.write(_report("lags.csv", lags_lines(panel, selection)))
    return 0


def _cmd_johansen(config, args) -> int:
    panel, _, jres = _spec(config, args)
    sys.stdout.write(_report("johansen.csv", johansen_lines(panel, jres)))
    return 0


def _fit_lines(fit) -> str:
    """Long-format parameter listing: component, row label, column, value."""
    n = fit.n
    labels = list(VARIABLES)
    if fit.beta.shape[0] == n + 1:
        labels.append("const")
    lines = []
    for j in range(fit.spec.r):
        lines += [f"beta,{lab},{j + 1},{fmt6(fit.beta[i, j])}\n" for i, lab in enumerate(labels)]
        lines += [f"alpha,{labels[i]},{j + 1},{fmt6(fit.alpha[i, j])}\n" for i in range(n)]
    blocks = [(f"gamma{g}", gamma) for g, gamma in enumerate(fit.gammas, start=1)]
    for name, m in blocks + [("mu", fit.mu[:, None]), ("sigma", fit.sigma)]:
        lines += [
            f"{name},{labels[i]},{j + 1},{fmt6(m[i, j])}\n"
            for i in range(n)
            for j in range(m.shape[1])
        ]
    return "".join(lines)


def _cmd_fit(config, args) -> int:
    panel, spec, jres = _spec(config, args)
    fit = fit_vecm(panel.levels, spec, jres)
    sys.stdout.write(
        f"# {panel.state} {panel.naics} k={spec.k} r={spec.r} "
        f"case={spec.case.short} t_eff={fit.t_eff}\n"
        "component,row,col,value\n" + _fit_lines(fit)
    )
    return 0


def _cmd_diagnose(config, args) -> int:
    panel, spec, jres = _spec(config, args)
    fit = fit_vecm(panel.levels, spec, jres)
    sys.stdout.write(
        _report("lm.csv", lm_lines(panel, fit))
        + "\n"
        + _report("normality.csv", normality_lines(panel, fit))
    )
    return 0


def _cmd_forecast(config, args) -> int:
    horizon = config.defaults.horizon if args.horizon is None else args.horizon
    panel, spec, jres = _spec(config, args)
    x = panel.levels
    path = forecast(fit_vecm(x, spec, jres), x[-spec.k :], horizon)
    sys.stdout.write(_report("forecast.csv", forecast_lines(panel, path)))
    return 0


def _cmd_backtest(config, args) -> int:
    if args.holdout is None:
        holdout = config.defaults.holdout_start
    else:
        holdout = parse_quarter(args.holdout, "--holdout")
    if holdout is None:
        raise ConfigInvalid("no holdout start given (--holdout or defaults.holdoutStart)")
    panel, spec, _ = _spec(config, args)
    sys.stdout.write(_report("backtest.csv", backtest_lines(panel, *backtest(panel, spec, holdout))))
    return 0


def _cmd_run(config, args) -> int:
    manifest = run_pipeline(config)
    for entry in manifest.models:
        line = f"{entry['state']} {entry['naics']}: {entry['status']}"
        if entry["status"] == "ok":
            line += f" (k={entry['k']} r={entry['r']} case={entry['case']})"
        else:
            line += f" ({entry['message']})"
        print(line)
    print(f"wrote {len(manifest['files'])} reports to {config.out_dir}")
    return 1 if manifest.failed else 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default="config.json", help="run configuration path")

    parser = argparse.ArgumentParser(
        prog="cointegra",
        description="State-industry cointegration and forecasting toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand's parser names its handler, which ``main`` calls.
    def stage(name: str, handler, help_text: str, with_spec: bool = False):
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.set_defaults(handler=handler)
        _model_args(p, with_spec=with_spec)
        return p

    stage("ingest", _cmd_ingest, "validate one panel file")
    stage("summarize", _cmd_summarize, "per-variable summary statistics")
    stage("lq", _cmd_lq, "location-quotient screening")
    p = stage("adf", _cmd_adf, "unit-root tests for each variable")
    p.add_argument("--lag", type=int, default=ADF_LAG)
    p.add_argument("--deterministic", default=ADF_CASE)
    p = stage("lags", _cmd_lags, "lag-order selection criteria")
    p.add_argument("--max-lag", type=int, default=None)
    p = stage("johansen", _cmd_johansen, "cointegration rank test")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--case", default=None)
    stage("fit", _cmd_fit, "estimate the error-correction model", with_spec=True)
    stage("diagnose", _cmd_diagnose, "residual diagnostics", with_spec=True)
    p = stage("forecast", _cmd_forecast, "point forecasts in levels", with_spec=True)
    p.add_argument("--horizon", type=int, default=None)
    p = stage("backtest", _cmd_backtest, "holdout forecast evaluation", with_spec=True)
    p.add_argument("--holdout", default=None, help="first holdout quarter, e.g. 2016Q1")
    run = sub.add_parser("run", help="full pipeline over all configured models", parents=[common])
    run.add_argument("--out", default=None, help="override output directory")
    run.add_argument("--seed", type=int, default=None, help="override configured seed")
    run.set_defaults(handler=_cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)  # only run has --out and --seed
    try:
        config = load_config(
            args.config,
            out_dir=None if out is None else os.path.abspath(out),
            seed=getattr(args, "seed", None),
        )
        return args.handler(config, args)
    except CointegraError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
