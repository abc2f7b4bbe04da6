import pytest

from cointegra.quarters import QuarterDate


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

    @pytest.mark.parametrize("year", [0, 7, 999, 1000, 9999])
    def test_label_is_four_digit_and_parses_back(self, year):
        q = QuarterDate(year, 3)
        assert q.label() == f"{year:04d}Q3"
        assert QuarterDate.parse(q.label()) == q
        assert [QuarterDate.parse(label) for label in q.labels(2)] == [q, q.advanced(1)]

    def test_parse_rejects_bad_labels(self):
        for bad in ("2018Q5", "2018", "Q1", "2018q0"):
            with pytest.raises(ValueError):
                QuarterDate.parse(bad)

    def test_invalid_quarter_rejected(self):
        with pytest.raises(ValueError):
            QuarterDate(2001, 5)


    def test_index_orders_and_round_trips(self):
        dates = [QuarterDate(2000, 4), QuarterDate(2001, 1), QuarterDate(2001, 2)]
        indices = [d.index for d in dates]
        assert indices == [QuarterDate.index_of(d.year, d.quarter) for d in dates]
        assert indices == list(range(indices[0], indices[0] + 3))
        assert [QuarterDate.from_index(i) for i in indices] == dates

    def test_consecutive_quarters_cross_the_year(self):
        start = QuarterDate(2001, 3)
        assert start.following(3) == [(2001, 3), (2001, 4), (2002, 1)]
        assert start.labels(3) == ["2001Q3", "2001Q4", "2002Q1"]
        assert start.labels(3) == [start.advanced(i).label() for i in range(3)]
        assert start.labels(0) == []
