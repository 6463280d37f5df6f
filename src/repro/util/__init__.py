"""Shared utilities: clocks, seeded RNG derivation, the ECDF, units.

These are substrate modules used throughout the FlowDNS reproduction. They
deliberately contain no FlowDNS-specific logic so they can be reused by the
workload generators, the correlation engine, and the analysis code alike.
:func:`lazy_exports` lets a package re-export names without importing
the modules behind them until they are used.
"""

import importlib
import sys
from typing import Dict

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
    "lazy_exports",
]


def lazy_exports(package: str, exports: Dict[str, str]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for ``package``, and its
    ``__all__``. ``exports`` maps a module to the space-separated names
    the package re-exports from it; the module is imported the first time
    one of its names is asked for, and the value is then bound in the
    package."""
    where = {name: module for module, names in exports.items() for name in names.split()}
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(where[name]), name)
        return value

    def __dir__():
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__, list(where)
