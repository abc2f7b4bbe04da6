"""Seeded generator for the ``long-panel`` workload.

Writes, for every (state, naics) pair the run configuration accepts, a
quarterly panel spanning 1947Q1-2024Q4 (T=312), the matching
location-quotient reference series, and a run configuration with
maxLag 12 and horizon 20. Pure Python (``random``), so the same seed
gives the same bytes whatever numpy is installed.

Data-generating process, in logs, for each panel: two random walks with
drift ``f_t`` load on the five variables through ``A`` (5x2), plus a
stationary AR(1) deviation ``u_t = phi * u_{t-1} + e_t``. Levels are
``exp(base + A f_t + u_t)``. That is a VECM with two stochastic trends,
so the cointegrating rank is 3.
"""

from __future__ import annotations

import json
import math
import os
import random

STATES = ("AL", "AR", "ME", "MS", "OR", "WI")
NAICS = (113, 321, 322)
FIRST_YEAR, LAST_YEAR = 1947, 2024
# CSV column order of a panel file, and the log base level of each variable.
COLUMNS = ("employment", "wages", "num_firms", "output", "price")
BASE = {"employment": 8.3, "wages": 10.4, "num_firms": 6.4, "output": 4.8, "price": -0.25}

DGP = {
    "n": 5,
    "trends": 2,
    "rank": 3,
    "T": 4 * (LAST_YEAR - FIRST_YEAR + 1),
    "span": f"{FIRST_YEAR}Q1-{LAST_YEAR}Q4",
    "trend_drift": [0.004, 0.002],
    "trend_sd": [0.012, 0.008],
    "loading_range": [0.4, 1.2],
    "phi_range": [0.3, 0.8],
    "noise_sd": 0.02,
    "aux_drift": 0.003,
    "aux_sd": 0.006,
    "maxLag": 12,
    "horizon": 20,
    "holdoutStart": "2016Q1",
}


def _quarters():
    return [(y, q) for y in range(FIRST_YEAR, LAST_YEAR + 1) for q in range(1, 5)]


def _panel_rows(rng: random.Random) -> list[tuple]:
    t = DGP["T"]
    lo, hi = DGP["loading_range"]
    loadings = {
        name: [rng.uniform(lo, hi) * rng.choice((-1.0, 1.0)) for _ in range(DGP["trends"])]
        for name in COLUMNS
    }
    phi = {name: rng.uniform(*DGP["phi_range"]) for name in COLUMNS}
    trends = [0.0] * DGP["trends"]
    dev = {name: 0.0 for name in COLUMNS}
    rows = []
    for _ in range(t):
        for j in range(DGP["trends"]):
            trends[j] += DGP["trend_drift"][j] + rng.gauss(0.0, DGP["trend_sd"][j])
        values = []
        for name in COLUMNS:
            dev[name] = phi[name] * dev[name] + rng.gauss(0.0, DGP["noise_sd"])
            level = BASE[name] + sum(a * f for a, f in zip(loadings[name], trends)) + dev[name]
            values.append(math.exp(level))
        rows.append(values)
    return rows


def _aux_values(rng: random.Random, base: float) -> list[float]:
    level, out = math.log(base), []
    for _ in range(DGP["T"]):
        level += DGP["aux_drift"] + rng.gauss(0.0, DGP["aux_sd"])
        out.append(math.exp(level))
    return out


def _write(path: str, header: tuple, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def generate(root: str, seed: int) -> str:
    """Write the dataset under ``root``; return the config path."""
    rng = random.Random(seed)
    quarters = _quarters()
    os.makedirs(os.path.join(root, "panels"), exist_ok=True)
    os.makedirs(os.path.join(root, "aux"), exist_ok=True)
    for state in STATES:
        for naics in NAICS:
            rows = _panel_rows(rng)
            _write(
                os.path.join(root, "panels", f"{state}_{naics}.csv"),
                ("year", "quarter") + COLUMNS,
                ((str(y), str(q)) + tuple(repr(v) for v in vals)
                 for (y, q), vals in zip(quarters, rows)),
            )
    aux = {"national_total": 1.4e8}
    aux.update({f"state_total_{s}": rng.uniform(0.6e6, 3.0e6) for s in STATES})
    aux.update({f"national_industry_{n}": rng.uniform(5.0e4, 4.0e5) for n in NAICS})
    for name, base in aux.items():
        _write(
            os.path.join(root, "aux", f"{name}.csv"),
            ("year", "quarter", "value"),
            ((str(y), str(q), repr(v)) for (y, q), v in zip(quarters, _aux_values(rng, base))),
        )
    config = {
        "dataDir": ".",
        "outDir": "out",
        "models": [{"state": s, "naics": n} for n in NAICS for s in STATES],
        "defaults": {
            "maxLag": DGP["maxLag"],
            "horizon": DGP["horizon"],
            "holdoutStart": DGP["holdoutStart"],
            "johansenCase": "restrictedConstant",
            "lqThreshold": 1.0,
        },
        "seed": seed,
    }
    path = os.path.join(root, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh, indent=2)
    return path
