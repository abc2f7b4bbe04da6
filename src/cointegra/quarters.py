"""Quarterly calendar primitives.

A :class:`QuarterDate` is an immutable (year, quarter) pair with lexicographic
ordering. A panel (``panel.PanelDataset``) dates row i of its levels as
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

