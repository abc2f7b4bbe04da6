"""Quarterly calendar primitives.

A :class:`QuarterDate` is an immutable (year, quarter) pair with lexicographic
ordering; a :class:`QuarterlySeries` couples a start quarter with a gap-free
run of finite values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInput

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

    def advanced(self, n: int) -> "QuarterDate":
        """Return this quarter advanced by ``n`` quarters (n may be negative)."""
        idx = self.year * 4 + (self.quarter - 1) + n
        return QuarterDate(idx // 4, idx % 4 + 1)

    def quarters_since(self, other: "QuarterDate") -> int:
        """Number of quarters from ``other`` to self; negative if self is earlier."""
        return (self.year - other.year) * 4 + (self.quarter - other.quarter)

    def label(self) -> str:
        return f"{self.year}Q{self.quarter}"

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


@dataclass
class QuarterlySeries:
    """A gap-free quarterly series.

    Value ``i`` corresponds to ``start.advanced(i)``. Values must be finite.
    """

    start: QuarterDate
    values: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if self.values.size and not np.all(np.isfinite(self.values)):
            raise ValueError("series values must be finite")

    def __len__(self) -> int:
        return self.values.size

    @property
    def end(self) -> QuarterDate:
        if len(self) == 0:
            raise EmptyInput("empty series has no end quarter")
        return self.start.advanced(len(self) - 1)

    def window(self, first: QuarterDate, last: QuarterDate) -> "QuarterlySeries":
        """Inclusive sub-series from ``first`` to ``last``."""
        i = first.quarters_since(self.start)
        j = last.quarters_since(self.start)
        if i < 0 or j >= len(self) or j < i:
            raise KeyError(f"window {first}..{last} outside sample")
        return QuarterlySeries(first, self.values[i : j + 1].copy())
