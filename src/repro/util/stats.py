"""Statistics helpers: ECDFs, percentiles, cumulative shares.

The paper reports most of its evidence as ECDFs (Figures 6, 8, 9) and
cumulative traffic-share curves (Figures 4, 5). These helpers are the single
implementation used by both the benchmark harness and the analysis modules,
so paper-vs-measured comparisons always use the same quantile semantics.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, Iterable, List, Sequence, Tuple


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


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    if not samples:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    data = sorted(samples)
    if q == 0.0:
        return data[0]
    idx = math.ceil(q / 100.0 * len(data)) - 1
    return data[max(0, idx)]


def quantiles(samples: Sequence[float], qs: Sequence[float]) -> List[float]:
    """Nearest-rank quantiles for several q values (each in [0, 1])."""
    ecdf = Ecdf(samples)
    return [ecdf.quantile(q) for q in qs]


def cumulative_share(values: Dict[str, float], descending: bool = True) -> List[Tuple[str, float]]:
    """Return (key, cumulative fraction) sorted by value.

    This is the transform behind Figure 5: "how many domain names contribute
    to what fraction of the traffic volume". Keys are ordered by their
    contribution (largest first by default) and the second element is the
    running share of the total.
    """
    total = float(sum(values.values()))
    items = sorted(values.items(), key=lambda kv: kv[1], reverse=descending)
    out: List[Tuple[str, float]] = []
    acc = 0.0
    for key, val in items:
        acc += val
        out.append((key, acc / total if total > 0 else 0.0))
    return out


def gini(values: Sequence[float]) -> float:
    """Gini coefficient of a non-negative sample (0 = equal, →1 = skewed).

    Used by tests to assert that synthetic traffic volume is heavy-tailed in
    the way Figure 5's "few domains carry most bytes" requires.
    """
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("gini of empty sequence")
    if any(v < 0 for v in data):
        raise ValueError("gini requires non-negative values")
    n = len(data)
    total = sum(data)
    if total == 0:
        return 0.0
    cum = 0.0
    weighted = 0.0
    for i, v in enumerate(data, start=1):
        cum += v
        weighted += cum
    # Standard formula: G = (n + 1 - 2 * sum(cum_i)/total) / n
    return (n + 1 - 2 * weighted / total) / n
