import numpy as np
import pytest

from cointegra.quarters import QuarterDate, QuarterlySeries


class TestQuarterDate:
    def test_ordering_is_lexicographic(self):
        assert QuarterDate(2001, 4) < QuarterDate(2002, 1)
        assert QuarterDate(2002, 1) < QuarterDate(2002, 3)
        assert QuarterDate(2002, 3) == QuarterDate(2002, 3)

    def test_q4_successor_rolls_year(self):
        assert QuarterDate(2001, 4).advanced(1) == QuarterDate(2002, 1)

    def test_advance_round_trip(self):
        start = QuarterDate(2001, 1)
        for n in range(-10, 11):
            assert start.advanced(n).quarters_since(start) == n

    def test_parse_and_label(self):
        q = QuarterDate.parse("2018Q4")
        assert q == QuarterDate(2018, 4)
        assert q.label() == "2018Q4"

    def test_parse_rejects_bad_labels(self):
        for bad in ("2018Q5", "2018", "Q1", "2018q0"):
            with pytest.raises(ValueError):
                QuarterDate.parse(bad)

    def test_invalid_quarter_rejected(self):
        with pytest.raises(ValueError):
            QuarterDate(2001, 5)


class TestQuarterlySeries:
    def test_end_and_quarters(self):
        s = QuarterlySeries(QuarterDate(2001, 3), np.array([1.0, 2.0, 3.0]))
        assert s.end == QuarterDate(2002, 1)
        labels = [s.start.advanced(i).label() for i in range(len(s))]
        assert labels == ["2001Q3", "2001Q4", "2002Q1"]

    def test_at_and_window(self):
        s = QuarterlySeries(QuarterDate(2001, 1), np.arange(1.0, 9.0))
        w = s.window(QuarterDate(2001, 2), QuarterDate(2002, 1))
        assert w.start == QuarterDate(2001, 2)
        assert list(w.values) == [2.0, 3.0, 4.0, 5.0]

    def test_out_of_range_access_raises(self):
        s = QuarterlySeries(QuarterDate(2001, 1), np.array([1.0, 2.0]))
        with pytest.raises(KeyError):
            s.window(QuarterDate(2001, 1), QuarterDate(2001, 4))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            QuarterlySeries(QuarterDate(2001, 1), np.array([1.0, np.nan]))
