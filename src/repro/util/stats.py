"""The empirical CDF.

The paper reports most of its evidence as ECDFs (Figures 6, 8, 9). This
class is the single implementation used by both the benchmark harness
and the analysis modules, so paper-vs-measured comparisons always use
the same quantile semantics.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, List, Tuple


class Ecdf:
    """Empirical cumulative distribution function over numeric samples."""

    def __init__(self, samples: Iterable[float]):
        self._sorted: List[float] = sorted(float(s) for s in samples)
        if not self._sorted:
            raise ValueError("Ecdf requires at least one sample")

    def __len__(self) -> int:
        return len(self._sorted)

    def at(self, x: float) -> float:
        """Return P(X <= x)."""
        return bisect_right(self._sorted, x) / len(self._sorted)

    def quantile(self, q: float) -> float:
        """Return the smallest x with P(X <= x) >= q."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if q == 0.0:
            return self._sorted[0]
        idx = math.ceil(q * len(self._sorted)) - 1
        return self._sorted[max(0, idx)]

    def points(self) -> List[Tuple[float, float]]:
        """Return (x, P(X<=x)) pairs at each distinct sample value."""
        pts: List[Tuple[float, float]] = []
        n = len(self._sorted)
        i = 0
        while i < n:
            x = self._sorted[i]
            j = bisect_right(self._sorted, x, lo=i)
            pts.append((x, j / n))
            i = j
        return pts

    @property
    def min(self) -> float:
        return self._sorted[0]

    @property
    def max(self) -> float:
        return self._sorted[-1]

