"""Shared utilities: simulated clocks, seeded RNG helpers, statistics.

These are substrate modules used throughout the FlowDNS reproduction. They
deliberately contain no FlowDNS-specific logic so they can be reused by the
workload generators, the correlation engine, and the analysis code alike.
"""

from repro.util.clock import SimClock, SystemClock, Clock
from repro.util.errors import ReproError, ConfigError, ParseError
from repro.util.rng import make_rng, derive_rng, zipf_sampler
from repro.util.stats import (
    Ecdf,
    percentile,
    quantiles,
    cumulative_share,
)
from repro.util.units import (
    KIB,
    MIB,
    GIB,
    format_bytes,
    format_rate,
    parse_duration,
)

__all__ = [
    "Clock",
    "SimClock",
    "SystemClock",
    "ReproError",
    "ConfigError",
    "ParseError",
    "make_rng",
    "derive_rng",
    "zipf_sampler",
    "Ecdf",
    "percentile",
    "quantiles",
    "cumulative_share",
    "KIB",
    "MIB",
    "GIB",
    "format_bytes",
    "format_rate",
    "parse_duration",
]
