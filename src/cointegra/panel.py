"""Quarterly state-industry panels: ingestion, proxy construction, location
quotients, and summary statistics.

A panel couples five series for one (state, naics) pair. The system ordering
used by every estimator downstream is :data:`VARIABLES`:
output, employment, wages, num_firms, price.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateQuarter,
    EmptyInput,
    GapInQuarters,
    IncompleteYear,
    MalformedValue,
    MissingAnnualValue,
    MissingColumn,
    NonPositiveInput,
    NonPositiveValue,
)
from .quarters import QuarterDate, QuarterlySeries

# System ordering of the panel variables in every vector/matrix downstream.
VARIABLES = ("output", "employment", "wages", "num_firms", "price")

# Column order used when panels are written back to CSV.
CSV_COLUMNS = ("year", "quarter", "employment", "wages", "num_firms", "output", "price")


@dataclass
class PanelDataset:
    """Five aligned quarterly series for one state-industry pair."""

    state: str
    naics: int
    output: QuarterlySeries
    employment: QuarterlySeries
    wages: QuarterlySeries
    num_firms: QuarterlySeries
    price: QuarterlySeries

    def __post_init__(self):
        series = [getattr(self, v) for v in VARIABLES]
        first = series[0]
        for name, s in zip(VARIABLES, series):
            if s.start != first.start or len(s) != len(first):
                raise ValueError(f"series {name!r} is not aligned with output")
            if len(s) and np.min(s.values) <= 0.0:
                raise ValueError(f"series {name!r} must be strictly positive")

    def __len__(self) -> int:
        return len(self.output)

    @property
    def start(self) -> QuarterDate:
        return self.output.start

    @property
    def end(self) -> QuarterDate:
        return self.output.end

    def matrix(self) -> np.ndarray:
        """T x 5 array in system variable order."""
        return np.column_stack([getattr(self, v).values for v in VARIABLES])

    def series(self, variable: str) -> QuarterlySeries:
        if variable not in VARIABLES:
            raise KeyError(f"unknown variable {variable!r}")
        return getattr(self, variable)

    def window(self, first: QuarterDate, last: QuarterDate) -> "PanelDataset":
        return PanelDataset(
            self.state,
            self.naics,
            *[self.series(v).window(first, last) for v in VARIABLES],
        )


@dataclass(frozen=True)
class LqRecord:
    """One location-quotient observation."""

    state: str
    naics: int
    quarter: QuarterDate
    lq: float


@dataclass(frozen=True)
class LqSignificance:
    """Mean location quotient for one (state, naics) pair with its flag."""

    state: str
    naics: int
    mean_lq: float
    significant: bool


def _parse_identity(csv_path: str) -> tuple[str, int]:
    # Files are named {STATE}_{NAICS}.csv, e.g. AL_113.csv.
    stem = os.path.splitext(os.path.basename(csv_path))[0]
    parts = stem.split("_")
    if len(parts) == 2 and parts[1].isdigit():
        return parts[0], int(parts[1])
    return stem, 0


def read_cell(raw: dict, column: str, row: int, cast=float):
    """``cast(raw[column])`` for one csv.DictReader row, raising
    MalformedValue when the cell is missing (a short row), does not parse,
    or is a nan or an infinity."""
    try:
        value = cast(raw[column])
    except (TypeError, ValueError):
        raise MalformedValue(row, column) from None
    if isinstance(value, float) and not math.isfinite(value):
        raise MalformedValue(row, column)
    return value


def ingest_panel(
    csv_path: str,
    schema: dict[str, str] | None = None,
    state: str | None = None,
    naics: int | None = None,
) -> PanelDataset:
    """Read one (state, naics) panel from CSV.

    Parameters
    ----------
    csv_path : str
        File with columns year, quarter, employment, wages, num_firms,
        output, price (renameable through ``schema``).
    schema : dict, optional
        Maps canonical column names to the names used in the file.
    state, naics : optional
        Panel identity; defaults are parsed from a ``{STATE}_{NAICS}.csv``
        file name.

    Raises
    ------
    MissingColumn
        A mapped column is absent from the header.
    DuplicateQuarter
        The same (year, quarter) appears twice.
    GapInQuarters
        The sorted quarters are not contiguous; the error lists the holes.
    MalformedValue
        A cell is missing or is not a number, or a quarter is outside 1..4
        (row index as below).
    NonPositiveValue
        A data cell is zero or negative (row index counts data rows from 0).
    """
    schema = schema or {}
    colmap = {name: schema.get(name, name) for name in CSV_COLUMNS}
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for canonical, actual in colmap.items():
            if actual not in header:
                raise MissingColumn(f"column {actual!r} not found in {csv_path}")
        rows = []
        for i, raw in enumerate(reader):
            year = read_cell(raw, colmap["year"], i, int)
            try:
                when = QuarterDate(year, read_cell(raw, colmap["quarter"], i, int))
            except ValueError:
                raise MalformedValue(i, colmap["quarter"]) from None
            values = {}
            for name in VARIABLES:
                v = read_cell(raw, colmap[name], i)
                if v <= 0.0 or not math.isfinite(v):
                    raise NonPositiveValue(i, name)
                values[name] = v
            rows.append((when, values))

    if not rows:
        raise EmptyInput(f"no data rows in {csv_path}")
    rows.sort(key=lambda r: r[0])
    seen = set()
    for when, _ in rows:
        if when in seen:
            raise DuplicateQuarter(f"quarter {when} duplicated in {csv_path}")
        seen.add(when)
    start = rows[0][0]
    expected = [start.advanced(i) for i in range(rows[-1][0].quarters_since(start) + 1)]
    missing = [q.label() for q in expected if q not in seen]
    if missing:
        raise GapInQuarters(missing)

    if state is None or naics is None:
        parsed_state, parsed_naics = _parse_identity(csv_path)
        state = state if state is not None else parsed_state
        naics = naics if naics is not None else parsed_naics
    series = {
        name: QuarterlySeries(start, np.array([vals[name] for _, vals in rows]))
        for name in VARIABLES
    }
    return PanelDataset(state=state, naics=int(naics), **series)


def write_panel_csv(panel: PanelDataset, csv_path: str) -> None:
    """Serialize a panel with the standard column layout."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for i, when in enumerate(panel.output.quarters()):
            writer.writerow(
                [when.year, when.quarter]
                + [repr(float(panel.series(v).values[i])) for v in ("employment", "wages", "num_firms")]
                + [repr(float(panel.output.values[i])), repr(float(panel.price.values[i]))]
            )


def disaggregate_annual_output(
    state_annual: dict[int, float], national_quarterly: QuarterlySeries
) -> QuarterlySeries:
    """Spread annual totals over quarters in proportion to a national series.

    result(t) = annual[year(t)] * national(t) / sum of national over year(t),
    so the four quarters of each year add back to the annual total.

    Raises
    ------
    IncompleteYear
        The national series does not cover whole calendar years.
    MissingAnnualValue
        A covered year has no annual entry.
    """
    if len(national_quarterly) == 0:
        raise EmptyInput("national series is empty")
    if national_quarterly.start.quarter != 1 or national_quarterly.end.quarter != 4:
        raise IncompleteYear("national series must cover whole calendar years")
    values = national_quarterly.values
    out = np.empty_like(values)
    for offset in range(0, len(values), 4):
        year = national_quarterly.start.advanced(offset).year
        if year not in state_annual:
            raise MissingAnnualValue(f"no annual value for {year}")
        block = values[offset : offset + 4]
        out[offset : offset + 4] = state_annual[year] * block / block.sum()
    return QuarterlySeries(national_quarterly.start, out)


def location_quotient(
    industry_regional: float,
    employment_regional: float,
    industry_national: float,
    employment_national: float,
) -> float:
    """Regional concentration ratio.

    (industry_regional / employment_regional) divided by
    (industry_national / employment_national); 1.0 means national-average
    concentration.
    """
    args = (industry_regional, employment_regional, industry_national, employment_national)
    if any(a <= 0.0 or not math.isfinite(a) for a in args):
        raise NonPositiveInput(f"all inputs must be positive, got {args}")
    return (industry_regional / employment_regional) / (
        industry_national / employment_national
    )


def lq_significance(
    records: list[LqRecord], threshold: float = 1.0
) -> list[LqSignificance]:
    """Flag (state, naics) pairs whose mean LQ strictly exceeds ``threshold``."""
    if not records:
        raise EmptyInput("no location-quotient records")
    groups: dict[tuple[str, int], list[float]] = {}
    for rec in records:
        groups.setdefault((rec.state, rec.naics), []).append(rec.lq)
    out = []
    for (state, naics) in sorted(groups):
        mean_lq = float(np.mean(groups[(state, naics)]))
        out.append(LqSignificance(state, naics, mean_lq, mean_lq > threshold))
    return out


def summarize(panel: PanelDataset) -> dict[str, dict[str, float]]:
    """Per-variable N, mean, sd (N-1 divisor), min, max."""
    if len(panel) == 0:
        raise EmptyInput("cannot summarize an empty panel")
    out = {}
    for name in VARIABLES:
        v = panel.series(name).values
        out[name] = {
            "n": int(v.size),
            "mean": float(np.mean(v)),
            "sd": float(np.std(v, ddof=1)) if v.size > 1 else 0.0,
            "min": float(np.min(v)),
            "max": float(np.max(v)),
        }
    return out
