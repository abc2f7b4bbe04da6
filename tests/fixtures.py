"""Bundled six-state demonstration dataset.

Builds, deterministically, one panel CSV per configured (state, naics)
model plus the employment series used by location-quotient screening and a
default run configuration. Each generated series reproduces its target
summary row (N, mean, sd with the N-1 divisor, min, max) exactly, so
summary output can be checked against known constants.

Regenerate with ``PYTHONPATH=src python3 tests/fixtures.py data/sixstate``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import zlib
from dataclasses import dataclass

import numpy as np

from cointegra.panel import CSV_COLUMNS, VARIABLES, PanelDataset
from cointegra.quarters import QuarterDate


@dataclass(frozen=True)
class SeriesStats:
    """Target summary row for one generated series."""

    n: int
    mean: float
    sd: float
    minimum: float
    maximum: float


START = {
    113: QuarterDate(2001, 1),
    321: QuarterDate(2004, 1),
    322: QuarterDate(2004, 1),
}

# One shared price index per industry.
PRICE_STATS = {
    113: SeriesStats(72, 0.888, 0.070, 0.762, 1.010),
    321: SeriesStats(60, 0.844, 0.080, 0.700, 1.042),
    322: SeriesStats(60, 0.900, 0.086, 0.700, 1.034),
}

# (naics, state) -> variable -> target row.
PANEL_STATS = {
    (113, "AL"): {
        "employment": SeriesStats(72, 4770.722, 528.868, 4059, 5852),
        "output": SeriesStats(72, 138.364, 10.343, 125.925, 167.450),
        "wages": SeriesStats(72, 40045.820, 3669.998, 32128, 48561),
        "num_firms": SeriesStats(72, 723.500, 102.239, 618, 958),
    },
    (113, "AR"): {
        "employment": SeriesStats(72, 2634.806, 486.663, 2080, 3490),
        "output": SeriesStats(72, 139.816, 8.399, 127.600, 158.175),
        "wages": SeriesStats(72, 21729.430, 2461.600, 16572, 27078),
        "num_firms": SeriesStats(72, 488.889, 87.577, 395, 637),
    },
    (113, "ME"): {
        "employment": SeriesStats(72, 2435.694, 402.883, 1532, 2945),
        "output": SeriesStats(72, 126.094, 25.333, 95.250, 184.046),
        "wages": SeriesStats(72, 22862.690, 4219.346, 13490, 28600),
        "num_firms": SeriesStats(72, 465.167, 32.614, 410, 539),
    },
    (113, "MS"): {
        "employment": SeriesStats(72, 3509.125, 525.034, 2916, 4367),
        "output": SeriesStats(72, 131.736, 15.187, 109.543, 163.417),
        "wages": SeriesStats(72, 27146.690, 2290.516, 22072, 31972),
        "num_firms": SeriesStats(72, 543.347, 83.891, 445, 696),
    },
    (113, "OR"): {
        "employment": SeriesStats(72, 6520.056, 914.163, 5024, 7931),
        "output": SeriesStats(72, 371.786, 35.719, 316.446, 443.350),
        "wages": SeriesStats(72, 74452.690, 9361.837, 48541, 95042),
        "num_firms": SeriesStats(72, 779.542, 116.811, 653, 1009),
    },
    (321, "AL"): {
        "employment": SeriesStats(60, 16290.200, 3211.876, 12124, 21922),
        "output": SeriesStats(60, 249.012, 36.851, 164.080, 318.712),
        "wages": SeriesStats(60, 150755.500, 28499.020, 95805, 208886),
        "num_firms": SeriesStats(60, 408.417, 48.883, 351, 483),
    },
    (321, "AR"): {
        "employment": SeriesStats(60, 10505.350, 1901.429, 8607, 14003),
        "output": SeriesStats(60, 179.579, 25.049, 131.518, 221.631),
        "wages": SeriesStats(60, 93793.170, 11820.660, 72067, 113987),
        "num_firms": SeriesStats(60, 348.233, 33.143, 300, 403),
    },
    (321, "ME"): {
        "employment": SeriesStats(60, 4915.300, 941.203, 3902, 6840),
        "output": SeriesStats(60, 78.765, 9.636, 58.651, 102.044),
        "wages": SeriesStats(60, 45630.900, 6859.528, 31724, 59522),
        "num_firms": SeriesStats(60, 217.167, 31.553, 181, 283),
    },
    (321, "MS"): {
        "employment": SeriesStats(60, 10600.500, 2199.874, 8512, 14465),
        "output": SeriesStats(60, 183.422, 24.604, 129.520, 228.850),
        "wages": SeriesStats(60, 97188.620, 14736.430, 70435, 127558),
        "num_firms": SeriesStats(60, 283.767, 27.526, 244, 325),
    },
    (321, "OR"): {
        "employment": SeriesStats(60, 24457.850, 4868.420, 18917, 32858),
        "output": SeriesStats(60, 427.237, 50.814, 302.302, 504.151),
        "wages": SeriesStats(60, 261847.300, 41054.910, 190597, 327597),
        "num_firms": SeriesStats(60, 462.117, 44.934, 407, 533),
    },
    (321, "WI"): {
        "employment": SeriesStats(60, 19346.480, 3852.204, 15661, 26103),
        "output": SeriesStats(60, 272.365, 25.497, 226.400, 319.415),
        "wages": SeriesStats(60, 165318.400, 27961.030, 109319, 216752),
        "num_firms": SeriesStats(60, 594.450, 61.748, 518, 686),
    },
    (322, "AL"): {
        "employment": SeriesStats(60, 12719.620, 1261.083, 11025, 14906),
        "output": SeriesStats(60, 709.239, 90.370, 570.600, 890.713),
        "wages": SeriesStats(60, 229630.800, 13505.820, 204766, 277691),
        "num_firms": SeriesStats(60, 98.917, 7.552, 88, 116),
    },
    (322, "AR"): {
        "employment": SeriesStats(60, 10567.650, 946.624, 9311, 12408),
        "output": SeriesStats(60, 456.539, 51.549, 375.600, 561.713),
        "wages": SeriesStats(60, 151272.800, 7235.220, 136843, 167105),
        "num_firms": SeriesStats(60, 79.533, 6.342, 69, 92),
    },
    (322, "ME"): {
        "employment": SeriesStats(60, 7159.017, 1752.367, 4303, 10141),
        "output": SeriesStats(60, 251.828, 79.617, 147.475, 391.131),
        "wages": SeriesStats(60, 114647.900, 18452.910, 80014, 145207),
        "num_firms": SeriesStats(60, 29.300, 7.911, 19, 47),
    },
    (322, "MS"): {
        "employment": SeriesStats(60, 4392.867, 723.909, 3595, 5840),
        "output": SeriesStats(60, 172.613, 28.778, 133.050, 241.616),
        "wages": SeriesStats(60, 64160.980, 7299.291, 53038, 82394),
        "num_firms": SeriesStats(60, 62.983, 4.545, 58, 74),
    },
    (322, "WI"): {
        "employment": SeriesStats(60, 32667.700, 3009.017, 29441, 38962),
        "output": SeriesStats(60, 1172.130, 199.072, 912.375, 1553.405),
        "wages": SeriesStats(60, 481891.300, 22935.080, 427142, 521102),
        "num_firms": SeriesStats(60, 268.467, 19.314, 244, 302),
    },
}

MODELS = tuple(sorted(PANEL_STATS, key=lambda key: (key[0], key[1])))

# All-industry state employment, scaled so every modeled pair screens as
# regionally significant (mean location quotient above one).
STATE_TOTAL_BASE = {
    "AL": 1.95e6,
    "AR": 1.22e6,
    "ME": 0.61e6,
    "MS": 1.12e6,
    "OR": 1.78e6,
    "WI": 2.87e6,
}
NATIONAL_INDUSTRY_BASE = {113: 5.2e4, 321: 4.0e5, 322: 3.8e5}
NATIONAL_TOTAL_BASE = 1.42e8

AUX_RANGE = (QuarterDate(2001, 1), 72)


def _seed(*parts) -> int:
    return zlib.crc32(":".join(str(p) for p in parts).encode())


def matched_series(stats: SeriesStats, seed: int) -> np.ndarray:
    """Series of length n with the exact target mean, sd, min, and max.

    The minimum and maximum are pinned at two points; the remaining points
    are an affine image of a zero-mean shape scaled to absorb the exact
    variance budget. When the smooth shape cannot hold every point inside
    [min, max], it is blended toward a two-level cycle whose level ratio
    mirrors the distances to the bounds; that pattern carries the most
    variance the bounds allow.
    """
    n, mu, sd = stats.n, stats.mean, stats.sd
    lo, hi = float(stats.minimum), float(stats.maximum)
    if not (lo < mu < hi and sd > 0.0 and n >= 4):
        raise ValueError(f"unusable target row {stats}")
    interior = n - 2
    mu_w = (n * mu - lo - hi) / interior
    budget = (
        (n - 1) * sd**2
        - (lo - mu) ** 2
        - (hi - mu) ** 2
        - interior * (mu_w - mu) ** 2
    )
    room_lo = mu_w - lo
    room_hi = hi - mu_w
    if budget <= 0.0 or room_lo <= 0.0 or room_hi <= 0.0:
        raise ValueError(f"infeasible target row {stats}")

    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, interior)
    smooth = (
        rng.uniform(0.5, 1.5) * (t - 0.5)
        + rng.uniform(0.1, 0.4)
        * np.sin(2.0 * math.pi * rng.uniform(1.5, 3.5) * t + rng.uniform(0.0, 2.0 * math.pi))
        + 0.08 * rng.standard_normal(interior)
    )
    smooth = smooth / np.max(np.abs(smooth))
    # Levels -1 and +ratio, highs spread evenly at the zero-mean frequency.
    ratio = room_hi / room_lo
    n_hi = min(interior - 1, max(1, round(interior / (1.0 + ratio))))
    counts = np.floor(np.arange(1, interior + 1) * n_hi / interior)
    pattern = np.where(np.diff(counts, prepend=0.0) > 0, ratio, -1.0)
    for weight in np.linspace(0.0, 1.0, 101):
        z = (1.0 - weight) * smooth + weight * pattern
        z = z - z.mean()
        amplitude = math.sqrt(budget / float(z @ z))
        fits_low = amplitude * -z.min() <= room_lo * (1.0 - 1e-9)
        fits_high = amplitude * z.max() <= room_hi * (1.0 - 1e-9)
        if fits_low and fits_high:
            break
    else:
        raise ValueError(f"cannot fit variance inside bounds for {stats}")

    values = list(mu_w + amplitude * z)
    # Pin the extremes next to the shape's own extremes to avoid spikes.
    inserts = sorted(
        [(int(np.argmax(z)), hi), (int(np.argmin(z)), lo)], reverse=True
    )
    for position, value in inserts:
        values.insert(position + 1, value)
    return np.asarray(values)


def build_panel(state: str, naics: int) -> PanelDataset:
    """Assemble one panel; the price column is shared across an industry."""
    series = {
        name: matched_series(stats, _seed(state, naics, name))
        for name, stats in PANEL_STATS[(naics, state)].items()
    }
    series["price"] = matched_series(PRICE_STATS[naics], _seed("price", naics))
    levels = np.column_stack([series[name] for name in VARIABLES])
    return PanelDataset(state, naics, START[naics], levels)


def write_panel_csv(panel: PanelDataset, csv_path: str) -> None:
    """Serialize a panel with the columns in ``CSV_COLUMNS`` order."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        columns = [VARIABLES.index(name) for name in CSV_COLUMNS[2:]]
        for i, row in enumerate(panel.levels[:, columns].tolist()):
            when = panel.start.advanced(i)
            writer.writerow([when.year, when.quarter] + [repr(v) for v in row])


def _aux_values(base: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    i = np.arange(AUX_RANGE[1], dtype=float)
    cycle = 0.04 * np.sin(2.0 * math.pi * i / 24.0 + phase)
    trend = 0.0015 * i
    return base * (1.0 + cycle + trend)


def _write_value_csv(path: str, values: np.ndarray) -> None:
    start, count = AUX_RANGE
    with open(path, "w", newline="") as fh:
        fh.write("year,quarter,value\n")
        for i in range(count):
            when = start.advanced(i)
            fh.write(f"{when.year},{when.quarter},{float(values[i])!r}\n")


def default_config() -> dict:
    return {
        "dataDir": ".",
        "outDir": "out",
        "models": [{"state": state, "naics": naics} for naics, state in MODELS],
        "defaults": {
            "maxLag": 4,
            "horizon": 20,
            "holdoutStart": "2016Q1",
            "johansenCase": "restrictedConstant",
            "lqThreshold": 1.0,
        },
        "seed": 20010101,
    }


def build_dataset(root: str) -> None:
    """Write the full dataset: panels, screening series, and config.json."""
    panels_dir = os.path.join(root, "panels")
    aux_dir = os.path.join(root, "aux")
    os.makedirs(panels_dir, exist_ok=True)
    os.makedirs(aux_dir, exist_ok=True)

    for naics, state in MODELS:
        panel = build_panel(state, naics)
        write_panel_csv(panel, os.path.join(panels_dir, f"{state}_{naics}.csv"))

    for state, base in sorted(STATE_TOTAL_BASE.items()):
        _write_value_csv(
            os.path.join(aux_dir, f"state_total_{state}.csv"),
            _aux_values(base, _seed("state_total", state)),
        )
    for naics, base in sorted(NATIONAL_INDUSTRY_BASE.items()):
        _write_value_csv(
            os.path.join(aux_dir, f"national_industry_{naics}.csv"),
            _aux_values(base, _seed("national_industry", naics)),
        )
    _write_value_csv(
        os.path.join(aux_dir, "national_total.csv"),
        _aux_values(NATIONAL_TOTAL_BASE, _seed("national_total")),
    )

    with open(os.path.join(root, "config.json"), "w") as fh:
        json.dump(default_config(), fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    build_dataset(sys.argv[1] if len(sys.argv) > 1 else "data/sixstate")
