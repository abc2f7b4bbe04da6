import csv
import os

import numpy as np
import pytest

from cointegra import panel as panel_module
from cointegra.errors import (
    DuplicateQuarter,
    EmptyInput,
    GapInQuarters,
    MalformedValue,
    MissingColumn,
    NonPositiveInput,
    NonPositiveValue,
)
from cointegra.panel import (
    CSV_COLUMNS,
    PanelDataset,
    VARIABLES,
    ingest_panel,
    location_quotient,
    lq_flag,
    summarize,
)
from cointegra.quarters import QuarterDate
from fixtures import write_panel_csv


def make_panel(start=QuarterDate(2001, 1), length=72, state="AL", naics=113, seed=3):
    rng = np.random.default_rng(seed)
    levels = np.column_stack([100.0 + rng.random(length) * 50.0 for _ in VARIABLES])
    return PanelDataset(state, naics, start, levels)


def write_rows(path, rows, header=CSV_COLUMNS):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def panel_rows(start, length, value=100.0):
    rows = []
    for i in range(length):
        q = start.advanced(i)
        rows.append([q.year, q.quarter, value, value, value, value, value])
    return rows


class TestPanelDataset:
    def test_end_and_quarters(self):
        panel = make_panel(start=QuarterDate(2001, 3), length=3)
        assert panel.end == QuarterDate(2002, 1)
        labels = [panel.start.advanced(i).label() for i in range(len(panel))]
        assert labels == ["2001Q3", "2001Q4", "2002Q1"]

    def test_at_and_window(self):
        levels = np.arange(1.0, 9.0)[:, None] * np.arange(1.0, 6.0)
        panel = PanelDataset("AL", 113, QuarterDate(2001, 1), levels)
        w = panel.window(QuarterDate(2001, 2), QuarterDate(2002, 1))
        assert (w.state, w.naics, w.start, len(w)) == ("AL", 113, QuarterDate(2001, 2), 4)
        assert list(w.levels[:, 0]) == [2.0, 3.0, 4.0, 5.0]
        assert np.array_equal(w.levels, levels[1:5])
        assert np.shares_memory(w.levels, panel.levels)

    def test_out_of_range_access_raises(self):
        panel = make_panel(length=2)
        for first, last in [
            (QuarterDate(2001, 1), QuarterDate(2001, 4)),
            (QuarterDate(2000, 4), QuarterDate(2001, 1)),
            (QuarterDate(2001, 2), QuarterDate(2001, 1)),
        ]:
            with pytest.raises(KeyError):
                panel.window(first, last)

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            levels = np.full((4, 5), 100.0)
            levels[2, 3] = bad
            with pytest.raises(ValueError, match="finite and strictly positive"):
                PanelDataset("AL", 113, QuarterDate(2001, 1), levels)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_rejected(self, bad):
        levels = np.full((4, 5), 100.0)
        levels[0, 4] = bad
        with pytest.raises(ValueError, match="finite and strictly positive"):
            PanelDataset("AL", 113, QuarterDate(2001, 1), levels)

    @pytest.mark.parametrize("shape", [(8,), (8, 4), (8, 6), (2, 8, 5)])
    def test_misshaped_levels_rejected(self, shape):
        with pytest.raises(ValueError, match="levels must be T x 5"):
            PanelDataset("AL", 113, QuarterDate(2001, 1), np.full(shape, 100.0))

    def test_zero_rows_is_empty(self):
        with pytest.raises(EmptyInput):
            PanelDataset("AL", 113, QuarterDate(2001, 1), np.empty((0, 5)))

    def test_levels_are_read_only(self):
        panel = make_panel(length=8)
        window = panel.window(QuarterDate(2001, 2), QuarterDate(2001, 4))
        for levels in (panel.levels, window.levels):
            with pytest.raises(ValueError, match="read-only"):
                levels[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                levels *= 2.0

    def test_caller_array_stays_writeable(self):
        levels = np.full((4, 5), 100.0)
        panel = PanelDataset("AL", 113, QuarterDate(2001, 1), levels)
        levels[0, 0] = 1.0
        assert levels.flags.writeable and not panel.levels.flags.writeable


class TestIngest:
    def test_seventy_two_quarters(self, tmp_path):
        path = tmp_path / "AL_113.csv"
        write_rows(path, panel_rows(QuarterDate(2001, 1), 72))
        panel = ingest_panel(str(path))
        assert len(panel) == 72
        assert panel.state == "AL" and panel.naics == 113
        assert panel.start == QuarterDate(2001, 1)
        assert panel.end == QuarterDate(2018, 4)

    def test_sixty_quarters(self, tmp_path):
        path = tmp_path / "AL_321.csv"
        write_rows(path, panel_rows(QuarterDate(2004, 1), 60))
        assert len(ingest_panel(str(path))) == 60

    def test_rows_are_sorted_on_ingest(self, tmp_path):
        path = tmp_path / "ME_113.csv"
        rows = panel_rows(QuarterDate(2001, 1), 8)
        rows.reverse()
        write_rows(path, rows)
        panel = ingest_panel(str(path))
        assert panel.start == QuarterDate(2001, 1)

    def test_gap_lists_missing_quarters(self, tmp_path):
        path = tmp_path / "AL_113.csv"
        rows = panel_rows(QuarterDate(2005, 1), 8)
        del rows[2]  # drop 2005Q3
        write_rows(path, rows)
        with pytest.raises(GapInQuarters) as err:
            ingest_panel(str(path))
        assert err.value.missing == ["2005Q3"]

    def test_duplicate_quarter_rejected(self, tmp_path):
        path = tmp_path / "AL_113.csv"
        rows = panel_rows(QuarterDate(2005, 1), 8)
        rows.append(rows[3])
        write_rows(path, rows)
        with pytest.raises(DuplicateQuarter):
            ingest_panel(str(path))

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "AL_113.csv"
        write_rows(
            path,
            [[2001, 1, 1.0, 1.0, 1.0, 1.0]],
            header=[c for c in CSV_COLUMNS if c != "price"],
        )
        with pytest.raises(MissingColumn):
            ingest_panel(str(path))

    def test_non_positive_value_rejected(self, tmp_path):
        path = tmp_path / "AL_113.csv"
        rows = panel_rows(QuarterDate(2005, 1), 8)
        rows[4][3] = 0.0  # wages column
        write_rows(path, rows)
        with pytest.raises(NonPositiveValue) as err:
            ingest_panel(str(path))
        assert err.value.row == 4
        assert err.value.column == "wages"

    def test_round_trip_identity(self, tmp_path):
        panel = make_panel(length=24)
        path = tmp_path / "AL_113.csv"
        write_panel_csv(panel, str(path))
        back = ingest_panel(str(path))
        assert back.state == panel.state and back.naics == panel.naics
        assert back.start == panel.start
        assert np.array_equal(back.levels, panel.levels)



def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


def csv_lines(rows, header=CSV_COLUMNS):
    return [",".join(map(str, header))] + [",".join(map(str, row)) for row in rows]


class TestIngestCells:
    """Row numbering, column lookup and the order in which cell errors are
    reported: the first offending cell in reading order wins. Rows count
    from 0 over data rows, blank lines not counted; within a row the year,
    the quarter, then the variables in VARIABLES order (output first)."""

    def test_blank_lines_are_skipped_and_not_counted(self, tmp_path):
        path = tmp_path / "AL_113.csv"
        lines = csv_lines(panel_rows(QuarterDate(2005, 1), 8))
        lines[6] = lines[6].replace("100.0", "-1.0", 1)  # data row 5, employment
        write_lines(path, lines[:3] + ["", ""] + lines[3:] + [""])
        with pytest.raises(NonPositiveValue) as err:
            ingest_panel(str(path))
        assert (err.value.row, err.value.column) == (5, "employment")

    def test_blank_line_mid_file_still_parses(self, tmp_path):
        path = tmp_path / "AL_113.csv"
        lines = csv_lines(panel_rows(QuarterDate(2005, 1), 8))
        write_lines(path, lines[:4] + [""] + lines[4:])
        panel = ingest_panel(str(path))
        assert len(panel) == 8 and panel.end == QuarterDate(2006, 4)

    def test_extra_columns_are_ignored(self, tmp_path):
        path = tmp_path / "AL_113.csv"
        rows = [row + ["note"] for row in panel_rows(QuarterDate(2005, 1), 8)]
        rows[2].append("beyond the header")
        write_rows(path, rows, header=CSV_COLUMNS + ("comment",))
        panel = ingest_panel(str(path))
        assert len(panel) == 8
        assert np.array_equal(panel.levels, np.full((8, 5), 100.0))

    def test_reordered_and_renamed_columns(self, tmp_path):
        path = tmp_path / "AL_113.csv"
        header = ["price", "output", "quarter", "num_firms", "year", "wages", "employment"]
        rows = []
        for i in range(8):
            q = QuarterDate(2005, 1).advanced(i)
            rows.append([5.0 + i, 1.0 + i, q.quarter, 4.0 + i, q.year, 3.0 + i, 2.0 + i])
        write_rows(path, rows[::-1], header=header)
        panel = ingest_panel(str(path))
        assert panel.start == QuarterDate(2005, 1)
        expected = np.arange(8.0)[:, None] + np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.array_equal(panel.levels, expected)

    def test_repeated_header_name_reads_the_last_column(self, tmp_path):
        path = tmp_path / "AL_113.csv"
        rows = [row + [200.0] for row in panel_rows(QuarterDate(2005, 1), 4)]
        write_rows(path, rows, header=CSV_COLUMNS + ("price",))
        price = ingest_panel(str(path)).levels[:, VARIABLES.index("price")]
        assert np.array_equal(price, np.full(4, 200.0))

    def test_short_row_names_the_first_missing_column(self, tmp_path):
        path = tmp_path / "AL_113.csv"
        rows = panel_rows(QuarterDate(2005, 1), 8)
        rows[3] = rows[3][:4]  # year, quarter, employment, wages
        write_rows(path, rows)
        with pytest.raises(MalformedValue) as err:
            ingest_panel(str(path))
        assert (err.value.row, err.value.column) == (3, "output")

    @pytest.mark.parametrize(
        "column, cell",
        [("num_firms", "abc"), ("price", "nan"), ("wages", "-inf"), ("quarter", "2.0")],
    )
    def test_bad_cell_names_its_column(self, tmp_path, column, cell):
        # A non-finite cell is malformed even when it is also negative.
        path = tmp_path / "AL_113.csv"
        rows = panel_rows(QuarterDate(2005, 1), 8)
        rows[6][CSV_COLUMNS.index(column)] = cell
        write_rows(path, rows)
        with pytest.raises(MalformedValue) as err:
            ingest_panel(str(path))
        assert (err.value.row, err.value.column) == (6, column)

    def test_bad_year_beats_a_negative_value_in_its_row(self, tmp_path):
        path = tmp_path / "AL_113.csv"
        rows = panel_rows(QuarterDate(2005, 1), 8)
        rows[2][0] = "20x5"
        rows[2][CSV_COLUMNS.index("output")] = -4.0
        write_rows(path, rows)
        with pytest.raises(MalformedValue) as err:
            ingest_panel(str(path))
        assert (err.value.row, err.value.column) == (2, "year")

    def test_reading_order_across_rows_and_columns(self, tmp_path):
        path = tmp_path / "AL_113.csv"
        rows = panel_rows(QuarterDate(2005, 1), 8)
        rows[5][0] = "bad"  # a later row's malformed year comes second
        rows[3][CSV_COLUMNS.index("employment")] = "bad"
        rows[3][CSV_COLUMNS.index("output")] = 0.0  # output precedes employment
        write_rows(path, rows)
        with pytest.raises(NonPositiveValue) as err:
            ingest_panel(str(path))
        assert (err.value.row, err.value.column) == (3, "output")

    def test_cell_errors_come_before_order_errors(self, tmp_path):
        path = tmp_path / "AL_113.csv"
        rows = panel_rows(QuarterDate(2005, 1), 8)
        rows.append(list(rows[0]))  # a duplicate quarter
        rows[7][1] = 9  # and a quarter outside 1..4
        write_rows(path, rows)
        with pytest.raises(MalformedValue) as err:
            ingest_panel(str(path))
        assert (err.value.row, err.value.column) == (7, "quarter")

    def test_first_duplicate_in_time_order_is_named(self, tmp_path):
        path = tmp_path / "AL_113.csv"
        rows = panel_rows(QuarterDate(2005, 1), 8)
        rows += [list(rows[6]), list(rows[1])]  # 2006Q3 and 2005Q2 again
        write_rows(path, rows)
        with pytest.raises(DuplicateQuarter, match="quarter 2005Q2 duplicated"):
            ingest_panel(str(path))

    def test_gap_lists_every_hole(self, tmp_path):
        path = tmp_path / "AL_113.csv"
        rows = panel_rows(QuarterDate(2005, 1), 12)
        del rows[9], rows[4], rows[3]
        write_rows(path, rows)
        with pytest.raises(GapInQuarters) as err:
            ingest_panel(str(path))
        assert err.value.missing == ["2005Q4", "2006Q1", "2007Q2"]

    @pytest.mark.parametrize("body", [[], ["", ""]])
    def test_header_only_is_empty(self, tmp_path, body):
        path = tmp_path / "AL_113.csv"
        write_lines(path, [",".join(CSV_COLUMNS)] + body)
        with pytest.raises(EmptyInput):
            ingest_panel(str(path))

    @pytest.mark.parametrize("text", ["", "\n" + ",".join(CSV_COLUMNS) + "\n"])
    def test_no_header_is_a_missing_column(self, tmp_path, text):
        # csv.DictReader takes the first line as the header, even a blank one.
        path = tmp_path / "AL_113.csv"
        path.write_text(text)
        with pytest.raises(MissingColumn, match="'year'"):
            ingest_panel(str(path))


BUNDLED_PANEL = os.path.join(
    os.path.dirname(__file__), "..", "data", "sixstate", "panels", "AL_113.csv"
)


class TestReadPaths:
    """A plain file is read in one pass, without ``read_table``; a file that
    only the csv module reads right (a quoted cell, lone CR line ends, a
    ragged row) goes through it, to the same panel."""

    @pytest.fixture
    def read_table_calls(self, monkeypatch):
        calls, read_table = [], panel_module.read_table

        def counted(path):
            calls.append(path)
            return read_table(path)

        monkeypatch.setattr(panel_module, "read_table", counted)
        return calls

    def test_bundled_panel_is_read_in_one_pass(self, read_table_calls):
        assert len(ingest_panel(BUNDLED_PANEL)) == 72
        assert read_table_calls == []

    @pytest.mark.parametrize(
        "edit",
        [
            lambda data: data.replace(b"\n2001,1,", b'\n"2001",1,', 1),
            lambda data: data.replace(b"\r\n", b"\r"),
            lambda data: data.replace(b"\r\n2001,1,", b",\r\n2001,1,", 1),
        ],
        ids=["quoted-cell", "lone-cr", "trailing-comma"],
    )
    def test_other_files_are_read_through_read_table(self, edit, tmp_path, read_table_calls):
        with open(BUNDLED_PANEL, "rb") as fh:
            data = fh.read()
        path = tmp_path / "AL_113.csv"
        path.write_bytes(edit(data))
        assert path.read_bytes() != data
        expected = ingest_panel(BUNDLED_PANEL)
        panel = ingest_panel(str(path))
        assert read_table_calls == [str(path)]
        assert panel.start == expected.start
        assert np.array_equal(panel.levels, expected.levels)

    def test_a_row_short_of_an_unused_column_is_read_through_read_table(
        self, tmp_path, read_table_calls
    ):
        # Every cell is an integer, so columns misaligned by the short row
        # would still cast.
        path = tmp_path / "AL_113.csv"
        rows = [row[:2] + [3] * 5 + [1] for row in panel_rows(QuarterDate(2005, 1), 4)]
        rows[1] = rows[1][:-1]
        write_rows(path, rows, header=CSV_COLUMNS + ("note",))
        panel = ingest_panel(str(path))
        assert read_table_calls == [str(path)]
        assert panel.start == QuarterDate(2005, 1)
        assert np.array_equal(panel.levels, np.full((4, 5), 3.0))

    def test_a_quoted_line_break_joins_two_lines(self, tmp_path, read_table_calls):
        # Each line has the header's field count, but the csv module reads
        # 2005Q3's line into 2005Q2's note.
        path = tmp_path / "AL_113.csv"
        rows = [row + ["x"] for row in panel_rows(QuarterDate(2005, 1), 4)]
        lines = csv_lines(rows, header=CSV_COLUMNS + ("note",))
        lines[2] = lines[2][:-1] + '"x'
        lines[3] = lines[3][:-1] + 'x"'
        write_lines(path, lines)
        with pytest.raises(GapInQuarters) as err:
            ingest_panel(str(path))
        assert err.value.missing == ["2005Q3"]
        assert read_table_calls == [str(path)]


class TestLocationQuotient:
    def test_equal_shares_give_one(self):
        assert location_quotient(10.0, 100.0, 1000.0, 10000.0) == pytest.approx(1.0)

    def test_hand_values(self):
        assert location_quotient(50.0, 1000.0, 2000.0, 100000.0) == pytest.approx(2.5)
        assert location_quotient(1.0, 1000.0, 2000.0, 100000.0) == pytest.approx(0.05)

    def test_non_positive_rejected(self):
        with pytest.raises(NonPositiveInput):
            location_quotient(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(NonPositiveInput):
            location_quotient(1.0, 1.0, -2.0, 1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            a, b, c, d = rng.random(4) * 100.0 + 0.1
            base = location_quotient(a, b, c, d)
            s = float(rng.random() * 10.0 + 0.1)
            assert location_quotient(a * s, b * s, c, d) == pytest.approx(base)
            assert location_quotient(a, b, c * s, d * s) == pytest.approx(base)


class TestLqSignificance:
    def test_single_above_threshold(self):
        assert lq_flag([1.5]) == (1.5, True)

    def test_boundary_is_not_significant(self):
        assert lq_flag([1.0]) == (1.0, False)

    def test_mean_aggregation(self):
        mean_lq, significant = lq_flag(np.array([0.5, 2.5]))
        assert mean_lq == pytest.approx(1.5)
        assert significant is True


class TestSummarize:
    def test_constant_series(self):
        panel = PanelDataset("AL", 113, QuarterDate(2001, 1), np.full((3, 5), 5.0))
        stats = summarize(panel)["output"]
        assert stats == {"n": 3, "mean": 5.0, "sd": 0.0, "min": 5.0, "max": 5.0}

    def test_sample_sd_divisor(self):
        levels = np.repeat(np.array([[1.0], [2.0], [3.0], [4.0]]), 5, axis=1)
        panel = PanelDataset("AL", 113, QuarterDate(2001, 1), levels)
        # sum of squared deviations 5, divided by N-1=3
        assert summarize(panel)["price"]["sd"] == pytest.approx(np.sqrt(5.0 / 3.0))

    def test_merged_mean_is_average_of_means(self):
        a = make_panel(seed=1, length=20)
        b = make_panel(seed=2, length=20)
        mp = PanelDataset("AL", 113, a.start, np.concatenate([a.levels, b.levels]))
        for name in VARIABLES:
            left = summarize(a)[name]["mean"]
            right = summarize(b)[name]["mean"]
            assert summarize(mp)[name]["mean"] == pytest.approx((left + right) / 2.0)
