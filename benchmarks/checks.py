"""Output checks behind ``failed_share``.

A model fails when its manifest status is not ``ok`` or when any of its
rows in the report bundle differ from the reference. References are
sha256 digests, per report file and per (file, model), stored in
``golden.json`` next to this file. Where no stored reference applies
(``long-panel`` at a seed other than the default), the first call of a
run is checked for row counts and becomes the reference for the rest.
"""

from __future__ import annotations

import hashlib
import json
import os

REPORTS = (
    "adf.csv", "backtest.csv", "forecast.csv", "irf.csv", "johansen.csv", "lags.csv",
    "lm.csv", "lq.csv", "lq_flags.csv", "normality.csv", "plot.csv", "summary.csv",
)
LM_LAGS = 4  # cointegra.pipeline.LM_LAGS: rows per model in lm.csv
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_bundle(out_dir: str) -> dict[str, bytes]:
    bundle = {}
    for name in REPORTS:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                bundle[name] = fh.read()
    return bundle


def file_digests(bundle: dict[str, bytes]) -> dict[str, str]:
    return {name: sha256(data) for name, data in bundle.items()}


def model_rows(data: bytes) -> dict[str, list[bytes]]:
    """Data rows of one report, keyed ``STATE_NAICS`` by their first two fields."""
    rows: dict[str, list[bytes]] = {}
    for line in data.splitlines()[1:]:
        state, naics, _ = line.split(b",", 2)
        rows.setdefault(f"{state.decode()}_{naics.decode()}", []).append(line)
    return rows


def model_digests(bundle: dict[str, bytes]) -> dict[str, dict[str, str]]:
    """``{model: {file: digest of that model's rows}}``."""
    out: dict[str, dict[str, str]] = {}
    for name, data in bundle.items():
        for model, lines in model_rows(data).items():
            out.setdefault(model, {})[name] = sha256(b"\n".join(lines))
    return out


def reference(bundle: dict[str, bytes]) -> dict:
    return {"files": file_digests(bundle), "models": model_digests(bundle)}


def failed_models(bundle: dict[str, bytes], ref: dict, models: list[str]) -> set[str]:
    """Models whose rows differ from ``ref``. A differing file that no
    model's rows explain (header, ordering) fails every model."""
    digests = file_digests(bundle)
    bad_files = {n for n in set(ref["files"]) | set(digests) if digests.get(n) != ref["files"].get(n)}
    if not bad_files:
        return set()
    got = model_digests({n: bundle[n] for n in bad_files if n in bundle})
    failed = set()
    for model in models:
        for name in bad_files:
            if got.get(model, {}).get(name) != ref["models"].get(model, {}).get(name):
                failed.add(model)
    return failed or set(models)


def expected_rows(n_obs: int, n: int, max_lag: int, horizon: int) -> dict[str, int]:
    """Rows per model in each report, from the panel length ``n_obs``,
    ``n`` variables, the lag search bound and the forecast horizon, for a
    configuration with a holdout start."""
    return {
        "summary.csv": n,
        "lq.csv": n_obs,
        "lq_flags.csv": 1,
        "adf.csv": n,
        "lags.csv": max_lag + 1,
        "johansen.csv": n,
        "lm.csv": LM_LAGS,
        "normality.csv": n + 1,
        "forecast.csv": n * (n_obs + horizon),
        "irf.csv": n * n * (horizon + 1),
        "plot.csv": n * (n_obs + horizon),
        "backtest.csv": n,
    }


def row_count_failures(bundle: dict[str, bytes], expected: dict[str, int],
                       models: list[str]) -> set[str]:
    failed = set()
    for name in set(expected) | set(bundle):
        per_model = model_rows(bundle[name]) if name in bundle else {}
        for model in models:
            if len(per_model.get(model, ())) != expected.get(name, 0):
                failed.add(model)
    return failed
