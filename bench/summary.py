"""Median and quartiles of a metric's samples, as ``results.json`` stores them."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """``{n, median, q1, q3, samples}``; quartiles as
    ``statistics.quantiles(samples, n=4)`` gives them (one sample: itself)."""
    samples = list(samples)
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "n": len(samples),
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "samples": samples,
    }

