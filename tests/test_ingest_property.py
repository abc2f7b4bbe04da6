"""Hostile-input property: a bundled panel or aux CSV with one cell changed,
one row deleted or duplicated, or a blank line inserted either parses or
raises a CointegraError, never anything else. Each outcome, a value or an
error with its class, row, column and message, equals that of the
row-at-a-time readers below, which ``ingest_panel``, the aux series reader
and ``lq_records_for_panel`` replaced."""

import csv
import math
import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cointegra.errors import (
    CointegraError,
    DuplicateQuarter,
    EmptyInput,
    GapInQuarters,
    MalformedValue,
    MissingColumn,
    NonPositiveValue,
)
from cointegra.panel import CSV_COLUMNS, VARIABLES, ingest_panel, location_quotient
from cointegra.pipeline import load_aux_series, lq_records_for_panel
from cointegra.quarters import QuarterDate

DATA_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "data", "sixstate"))
PANEL = os.path.join(DATA_ROOT, "panels", "AL_113.csv")
AUX = os.path.join(DATA_ROOT, "aux", "state_total_AL.csv")
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


# The reference readers: csv.DictReader, one cast per cell, one QuarterDate
# per row.


def _cell(raw, column, row, cast=float, path=None):
    try:
        value = cast(raw[column])
    except (TypeError, ValueError):
        raise MalformedValue(row, column, path) from None
    if isinstance(value, float) and not math.isfinite(value):
        raise MalformedValue(row, column, path)
    return value


def reference_ingest(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for column in CSV_COLUMNS:
            if column not in header:
                raise MissingColumn(f"column {column!r} not found in {path}")
        rows = []
        for i, raw in enumerate(reader):
            year = _cell(raw, "year", i, int)
            try:
                when = QuarterDate(year, _cell(raw, "quarter", i, int))
            except ValueError:
                raise MalformedValue(i, "quarter") from None
            values = []
            for name in VARIABLES:
                v = _cell(raw, name, i)
                if v <= 0.0:
                    raise NonPositiveValue(i, name)
                values.append(v)
            rows.append((when, values))
    if not rows:
        raise EmptyInput(f"no data rows in {path}")
    rows.sort(key=lambda r: r[0])
    seen = set()
    for when, _ in rows:
        if when in seen:
            raise DuplicateQuarter(f"quarter {when} duplicated in {path}")
        seen.add(when)
    start = rows[0][0]
    expected = [start.advanced(i) for i in range(rows[-1][0].quarters_since(start) + 1)]
    missing = [q.label() for q in expected if q not in seen]
    if missing:
        raise GapInQuarters(missing)
    return start, [values for _, values in rows]


def reference_value_series(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or {"year", "quarter", "value"} - set(reader.fieldnames):
            raise MissingColumn(f"{path}: expected columns year,quarter,value")
        values = {}
        for i, row in enumerate(reader):
            key = (_cell(row, "year", i, int, path), _cell(row, "quarter", i, int, path))
            values[key] = _cell(row, "value", i, float, path)
        return values


def reference_lq(panel, state_total, national_industry, national_total):
    files = {
        f"state_total_{panel.state}.csv": state_total,
        f"national_industry_{panel.naics}.csv": national_industry,
        "national_total.csv": national_total,
    }
    out = []
    for i in range(len(panel)):
        when = panel.start.advanced(i)
        key = (when.year, when.quarter)
        for name, series in files.items():
            if key not in series:
                raise MissingColumn(f"screening series missing {when.label()} in {name}")
        out.append(
            location_quotient(
                float(panel.levels[i, VARIABLES.index("employment")]),
                state_total[key],
                national_industry[key],
                national_total[key],
            )
        )
    return out


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the class and message of the
    CointegraError it raises; any other exception fails the test."""
    try:
        return fn(*args)
    except CointegraError as exc:
        return type(exc), str(exc)


# The edits.

CELLS = st.one_of(
    st.sampled_from(
        ["", " ", "x", "nan", "-inf", "1e400", "-1", "0", "-0.0", "7", "2.5", "20x1", "1_0"]
        + ["１２"]  # int() and float() read any Unicode decimal digits
    ),
    st.integers(-3000, 3000).map(str),
    st.floats().map(repr),
    st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=4),
)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def mutations(n_rows, n_cols):
    """One edit of a table with ``n_rows`` rows (the header is row 0)."""
    row = st.integers(0, n_rows - 1)
    return st.one_of(
        st.tuples(st.just("cell"), row, st.integers(0, n_cols - 1), CELLS),
        st.tuples(st.just("delete"), row),
        st.tuples(st.just("duplicate"), row),
        st.tuples(st.just("blank"), st.integers(0, n_rows)),
    )


def write_mutated(rows, mutation, path):
    rows = [list(r) for r in rows]
    kind, at = mutation[0], mutation[1]
    if kind == "cell":
        rows[at][mutation[2]] = mutation[3]
    elif kind == "delete":
        del rows[at]
    elif kind == "duplicate":
        rows.insert(at, list(rows[at]))
    else:
        rows.insert(at, [])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for r in rows:
            if r:
                writer.writerow(r)
            else:
                fh.write("\n")


PANEL_ROWS = read_rows(PANEL)
AUX_ROWS = read_rows(AUX)


@pytest.fixture(scope="module")
def data_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("sixstate")
    shutil.copytree(os.path.join(DATA_ROOT, "aux"), root / "aux")
    return root


def _read_panel(path):
    panel = ingest_panel(path)
    return panel.start, panel.levels.tolist()


@SETTINGS
@given(mutation=mutations(len(PANEL_ROWS), len(PANEL_ROWS[0])))
def test_mutated_panel_reads_as_the_reference_does(mutation, data_copy):
    path = str(data_copy / "AL_113.csv")
    write_mutated(PANEL_ROWS, mutation, path)
    assert outcome(_read_panel, path) == outcome(reference_ingest, path)


@SETTINGS
@given(mutation=mutations(len(AUX_ROWS), len(AUX_ROWS[0])))
def test_mutated_aux_series_reads_as_the_reference_does(mutation, data_copy):
    path = data_copy / "aux" / "state_total_AL.csv"
    write_mutated(AUX_ROWS, mutation, path)
    aux = outcome(load_aux_series, str(data_copy), ["AL"], [113])
    expected = outcome(reference_value_series, str(path))
    if isinstance(expected, tuple):
        assert aux == expected
        return
    assert aux["state_total"]["AL"] == expected
    panel = ingest_panel(PANEL)
    lq = outcome(lq_records_for_panel, panel, aux)
    series = (expected, aux["national_industry"][113], aux["national_total"])
    assert (lq if isinstance(lq, tuple) else lq.tolist()) == outcome(reference_lq, panel, *series)
