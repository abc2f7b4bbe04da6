"""Quarterly calendar primitives.

A :class:`QuarterDate` is an immutable (year, quarter) pair with lexicographic
ordering. Its index, 4·year + quarter − 1, numbers the quarters
consecutively (``index_of`` and ``from_index``); ``following`` and
``labels`` give the (year, quarter) pairs and the ``YYYYQn`` labels of
consecutive quarters. No other module computes either. A panel (``panel.PanelDataset``) dates row i of its levels as
``start.advanced(i)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_LABEL_RE = re.compile(r"^(\d{4})Q([1-4])$")


@dataclass(frozen=True, order=True)
class QuarterDate:
    """A calendar quarter, ordered by (year, quarter).

    Parameters
    ----------
    year : int
    quarter : int
        1 through 4.
    """

    year: int
    quarter: int

    def __post_init__(self):
        if not 1 <= self.quarter <= 4:
            raise ValueError(f"quarter must be in 1..4, got {self.quarter}")

    @staticmethod
    def index_of(year: int, quarter: int) -> int:
        """The quarter's index, 4·year + quarter − 1: consecutive quarters
        have consecutive indices, in the order of the dates."""
        return 4 * year + quarter - 1

    @classmethod
    def from_index(cls, index: int) -> "QuarterDate":
        """The quarter whose ``index_of`` is ``index``."""
        return cls(index // 4, index % 4 + 1)

    @property
    def index(self) -> int:
        return self.index_of(self.year, self.quarter)

    def advanced(self, n: int) -> "QuarterDate":
        """Return this quarter advanced by ``n`` quarters (n may be negative)."""
        return self.from_index(self.index + n)

    def quarters_since(self, other: "QuarterDate") -> int:
        """Number of quarters from ``other`` to self; negative if self is earlier."""
        return self.index - other.index

    def following(self, count: int) -> list[tuple[int, int]]:
        """(year, quarter) of ``count`` consecutive quarters from this one."""
        return [(i // 4, i % 4 + 1) for i in range(self.index, self.index + count)]

    def labels(self, count: int) -> list[str]:
        """Labels of ``count`` consecutive quarters from this one."""
        return ["%04dQ%d" % date for date in self.following(count)]  # faster than f"{year:04d}"

    def label(self) -> str:
        return "%04dQ%d" % (self.year, self.quarter)

    @classmethod
    def parse(cls, text: str) -> "QuarterDate":
        """Parse a '2001Q1'-style label; a non-string raises TypeError."""
        if not isinstance(text, str):
            raise TypeError(f"quarter label must be a string, got {text!r}")
        m = _LABEL_RE.match(text.strip())
        if m is None:
            raise ValueError(f"not a quarter label: {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    def __str__(self) -> str:
        return self.label()

