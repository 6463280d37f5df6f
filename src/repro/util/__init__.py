"""Shared utilities: clocks, seeded RNG derivation, the ECDF, units.

These are substrate modules used throughout the FlowDNS reproduction. They
deliberately contain no FlowDNS-specific logic so they can be reused by the
workload generators, the correlation engine, and the analysis code alike.
"""

from repro.util.clock import Clock
from repro.util.errors import ReproError, ConfigError, ParseError
from repro.util.rng import derive_rng
from repro.util.stats import Ecdf
from repro.util.units import KIB, MIB, GIB, format_bytes

__all__ = [
    "Clock",
    "ReproError",
    "ConfigError",
    "ParseError",
    "derive_rng",
    "Ecdf",
    "KIB",
    "MIB",
    "GIB",
    "format_bytes",
]
