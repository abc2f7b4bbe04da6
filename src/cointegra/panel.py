"""Quarterly state-industry panels: ingestion, location quotients, and
summary statistics.

A panel is one (state, naics) pair's T x 5 matrix of levels: row i is the
quarter ``start.advanced(i)``, and the columns follow :data:`VARIABLES`
(output, employment, wages, num_firms, price), the system ordering of every
estimator downstream. The matrix is read-only, so every stage can share it
and a window of it is a view.

Input CSVs are read by ``read_columns``. A file that holds no ``"``, no
NUL and no carriage return other than in CR LF line ends, whose every
non-blank line has the header's field count, and whose every needed cell
casts and passes its checks, is read in one pass: decoded once, split into
cells with one ``str.split``, and cast a column at a time. Every other
file takes ``read_table`` and ``parse_columns``, the only path that handles
quoted fields, lone CR line ends, ragged rows and bad cells, and that
raises their errors.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import (
    DuplicateQuarter,
    EmptyInput,
    GapInQuarters,
    InputFileMissing,
    MalformedFile,
    MalformedValue,
    MissingColumn,
    NonPositiveInput,
    NonPositiveValue,
)
from .quarters import QuarterDate

# System ordering of the panel variables in every vector/matrix downstream.
VARIABLES = ("output", "employment", "wages", "num_firms", "price")

# Columns a panel CSV's header must name, in any order; more are ignored.
CSV_COLUMNS = ("year", "quarter", "employment", "wages", "num_firms", "output", "price")

# The inclusive range of a cell in each of these columns; one outside it is
# malformed. Zero-padded to four digits, each year gives a ``YYYYQn`` label.
_RANGES = {"year": (0, 9999), "quarter": (1, 4)}


@dataclass
class PanelDataset:
    """One state-industry pair's levels: a T x 5 matrix in ``VARIABLES``
    column order whose row i is the quarter ``start.advanced(i)``.

    ``levels`` is made read-only. It must be 2-d with 5 columns, finite and
    strictly positive, else ValueError; zero rows raise EmptyInput.
    """

    state: str
    naics: int
    start: QuarterDate
    levels: np.ndarray

    def __post_init__(self):
        # A view, so making it read-only leaves the caller's array as it was.
        levels = np.asarray(self.levels, dtype=float).view()
        if levels.ndim != 2 or levels.shape[1] != len(VARIABLES):
            raise ValueError(f"levels must be T x {len(VARIABLES)}, got shape {levels.shape}")
        if not len(levels):
            raise EmptyInput("panel has no quarters")
        # NaN fails both comparisons.
        if not ((levels > 0.0) & (levels < np.inf)).all():
            raise ValueError("levels must be finite and strictly positive")
        levels.flags.writeable = False
        self.levels = levels

    def __len__(self) -> int:
        return len(self.levels)

    @property
    def end(self) -> QuarterDate:
        return self.start.advanced(len(self) - 1)

    def window(self, first: QuarterDate, last: QuarterDate) -> "PanelDataset":
        """Inclusive sub-panel from ``first`` to ``last``; its levels are a view."""
        i = first.quarters_since(self.start)
        j = last.quarters_since(self.start)
        if i < 0 or j >= len(self) or j < i:
            raise KeyError(f"window {first}..{last} outside sample")
        return PanelDataset(self.state, self.naics, first, self.levels[i : j + 1])


def _parse_identity(csv_path: str) -> tuple[str, int]:
    # Files are named {STATE}_{NAICS}.csv, e.g. AL_113.csv.
    stem = os.path.splitext(os.path.basename(csv_path))[0]
    parts = stem.split("_")
    if len(parts) == 2 and parts[1].isdigit():
        return parts[0], int(parts[1])
    return stem, 0


def read_table(path: str) -> tuple[list[str], list[list[str]]]:
    """The header and the data rows of a CSV file. The first line is the
    header, even when blank; later blank lines are skipped and not counted
    as rows. A leading byte-order mark is dropped, as Excel's "CSV UTF-8"
    writes one. A file that is not UTF-8, or that the csv module cannot
    split (a quoted field longer than its field limit), raises MalformedFile,
    as does a path that cannot be opened (a directory, no read permission);
    a file that does not exist raises InputFileMissing."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            return header, [row for row in reader if row]
    except FileNotFoundError as exc:
        raise InputFileMissing(f"no such file: {path}") from exc
    except OSError as exc:
        raise MalformedFile(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path} is not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise MalformedFile(f"{path} is not a readable CSV file: {exc}") from exc


def _cast_each(cells, cast) -> tuple[list, list[bool]]:
    """``cast`` of every cell, with 0 for the cells it rejects, and the
    rejected cells' flags."""
    values, bad = [], []
    for cell in cells:
        try:
            values.append(cast(cell))
            bad.append(False)
        except (TypeError, ValueError):
            values.append(0)
            bad.append(True)
    return values, bad


def parse_columns(
    header: list[str], rows: list[list[str]], columns, casts
) -> tuple[list, np.ndarray | None]:
    """Cast each named column of ``rows`` with its cast (``int`` or ``float``).

    A name repeated in the header reads its last column. Returns the
    columns (an int list, or a float array) and either None or a bool array
    (rows x columns) marking each malformed cell: one that is missing (a
    short row), does not parse, or is a nan or an infinity, or a ``year``
    cell outside 0..9999 or a ``quarter`` cell outside 1..4. A malformed
    cell's value is unspecified.
    """
    index = {name: i for i, name in enumerate(header)}
    picks = [index[name] for name in columns]
    width = max(picks) + 1
    if min(map(len, rows), default=width) < width:
        rows = [row + [None] * (width - len(row)) for row in rows]
    cells = list(zip(*rows)) if rows else [()] * width
    out, bad = [], np.zeros((len(rows), len(picks)), dtype=bool)
    for j, (i, cast) in enumerate(zip(picks, casts)):
        try:
            values = list(map(cast, cells[i]))
        except (TypeError, ValueError):
            values, bad[:, j] = _cast_each(cells[i], cast)
        if cast is float:
            values = np.array(values, dtype=float)
            bad[:, j] |= ~np.isfinite(values)
        if columns[j] in _RANGES:
            low, high = _RANGES[columns[j]]
            bad[:, j] |= np.array([not low <= v <= high for v in values], dtype=bool)
        out.append(values)
    return out, bad if bad.any() else None


def _one_pass(path: str, columns, casts) -> tuple[list[str], int, list] | None:
    """``read_columns``'s header, row count and columns for a file that
    needs none of ``read_table``'s handling and holds no bad cell, else
    None. None, too, where the file cannot be opened or decoded, so that
    ``read_table`` raises the error as it always has."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError):
        return None
    if "\r" in text:  # CR LF ends a line as LF does; a lone CR is left to csv
        text = text.replace("\r\n", "\n")
    if '"' in text or "\r" in text or "\0" in text:
        return None
    first, *lines = text.split("\n")
    rows = [line for line in lines if line]  # the csv module skips blank lines
    header = first.split(",")
    width = len(header)
    index = {name: i for i, name in enumerate(header)}
    # A field as long as csv's limit makes read_table fail; no line is that long.
    if (
        not first
        or not rows
        or any(name not in index for name in columns)
        or set(map(str.count, rows, repeat(","))) != {width - 1}
        or max(map(len, rows)) >= csv.field_size_limit()
    ):
        return None
    cells = ",".join(rows).split(",")
    out = []
    for name, cast in zip(columns, casts):
        try:
            values = list(map(cast, cells[index[name] :: width]))
        except ValueError:
            return None
        if cast is float:
            values = np.array(values, dtype=float)
            if not np.isfinite(values).all():
                return None
        if name in _RANGES:
            low, high = _RANGES[name]
            if min(values) < low or max(values) > high:
                return None
        out.append(values)
    return header, len(rows), out


def read_columns(path: str, columns, casts) -> tuple[list[str], int, list, np.ndarray | None]:
    """The header of the CSV file at ``path``, its number of data rows, and
    ``parse_columns`` of its rows for ``columns`` and ``casts``: as
    ``read_table`` and ``parse_columns`` give them, and with their errors.
    If the header lacks one of ``columns``, nothing is cast: the row count
    is 0 and the columns are empty. The one-pass reader (see the module
    docstring) gives the same result where it applies."""
    table = _one_pass(path, columns, casts)
    if table is not None:
        return (*table, None)
    header, rows = read_table(path)
    if not set(columns) <= set(header):
        return header, 0, [], None
    return (header, len(rows), *parse_columns(header, rows, columns, casts))


def ingest_panel(csv_path: str, state: str | None = None, naics: int | None = None) -> PanelDataset:
    """Read one (state, naics) panel from CSV.

    Parameters
    ----------
    csv_path : str
        File with the columns of ``CSV_COLUMNS``.
    state, naics : optional
        Panel identity; defaults are parsed from a ``{STATE}_{NAICS}.csv``
        file name.

    Raises
    ------
    MalformedFile
        The file is not UTF-8 text.
    MissingColumn
        A required column is absent from the header.
    MalformedValue
        A cell is missing, is not a number, or is a nan or an infinity, a
        year is outside 0..9999, or a quarter is outside 1..4.
    NonPositiveValue
        A data cell is zero or negative.
    EmptyInput
        The file has no data rows.
    DuplicateQuarter
        The same (year, quarter) appears twice; the first such quarter in
        time order is named.
    GapInQuarters
        The sorted quarters are not contiguous; the error lists the holes.

    The cell errors name the first offending cell in reading order: rows
    from the top (data rows count from 0, blank lines not counted), and in
    a row the year, the quarter, then the variables in ``VARIABLES`` order.
    """
    names = ("year", "quarter") + VARIABLES
    header, count, columns, bad = read_columns(
        csv_path, names, (int, int) + (float,) * len(VARIABLES)
    )
    for name in CSV_COLUMNS:
        if name not in header:
            raise MissingColumn(f"column {name!r} not found in {csv_path}")
    years, quarters, *series = columns
    levels = np.column_stack(series)
    if bad is not None or not (levels > 0.0).all():
        # 1 marks a malformed cell, 2 a non-positive one.
        codes = np.zeros((count, len(names)), dtype=np.int8)
        if bad is not None:
            codes[bad] = 1
        codes[:, 2:][(codes[:, 2:] == 0) & (levels <= 0.0)] = 2
        row, col = divmod(int(np.flatnonzero(codes)[0]), len(names))
        if codes[row, col] == 2:
            raise NonPositiveValue(row, names[col])
        raise MalformedValue(row, names[col])
    if not count:
        raise EmptyInput(f"no data rows in {csv_path}")

    # Quarter indices order the rows as QuarterDates do.
    index = list(map(QuarterDate.index_of, years, quarters))
    ordered = sorted(index)
    seen = set(ordered)
    if len(seen) < len(ordered):
        cur = next(cur for prev, cur in zip(ordered, ordered[1:]) if cur == prev)
        raise DuplicateQuarter(
            f"quarter {QuarterDate.from_index(cur).label()} duplicated in {csv_path}"
        )
    first, last = ordered[0], ordered[-1]
    if last - first + 1 != len(ordered):
        labels = QuarterDate.from_index(first).labels(last - first + 1)
        raise GapInQuarters([label for i, label in enumerate(labels, first) if i not in seen])

    if state is None or naics is None:
        parsed_state, parsed_naics = _parse_identity(csv_path)
        state = state if state is not None else parsed_state
        naics = naics if naics is not None else parsed_naics
    if ordered != index:
        levels = levels[np.argsort(index)]
    return PanelDataset(state, int(naics), QuarterDate.from_index(first), levels)


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


def lq_flag(lq, threshold: float = 1.0) -> tuple[float, bool]:
    """Mean of one pair's location quotients, and whether it strictly
    exceeds ``threshold``."""
    mean_lq = float(np.mean(lq))
    return mean_lq, mean_lq > threshold


def summarize(panel: PanelDataset) -> dict[str, dict[str, float]]:
    """Per-variable N, mean, sd (N-1 divisor), min, max."""
    out = {}
    for name, v in zip(VARIABLES, panel.levels.T):
        out[name] = {
            "n": int(v.size),
            "mean": float(np.mean(v)),
            "sd": float(np.std(v, ddof=1)) if v.size > 1 else 0.0,
            "min": float(np.min(v)),
            "max": float(np.max(v)),
        }
    return out
