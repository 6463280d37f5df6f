"""Benchmark result sink shared by the perf gate tests.

The remaining ``benchmarks/`` gates measure real ratios on whatever
machine runs them; this module lets each gate drop its numbers into one
JSON file so CI can upload the file as an artifact and the perf
trajectory accumulates across PRs.

The default file name is parameterised per PR (``BENCH_pr10.json``;
``$BENCH_JSON`` still overrides). Measurement *keys* are stable across
PRs, so plotting one key across the per-PR artifacts gives the
trajectory.
"""

from __future__ import annotations

import json
import os
from typing import Optional

DEFAULT_BENCH_FILE = "BENCH_pr10.json"


def bench_file_path(path: Optional[str] = None) -> str:
    return path or os.environ.get("BENCH_JSON", DEFAULT_BENCH_FILE)


def record_bench(name: str, value, path: Optional[str] = None) -> None:
    """Merge one ``name: value`` measurement into the bench JSON file.

    ``value`` is any JSON-serialisable payload — scalar gate numbers for
    most keys; the sweep harness records a list of per-config row dicts.

    Best-effort by design: an unwritable or corrupt file must never fail
    the gate that produced the number.
    """
    target = bench_file_path(path)
    data = {}
    try:
        with open(target, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
        if isinstance(loaded, dict):
            data = loaded
    except (OSError, ValueError):
        pass
    data[name] = value
    try:
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError:
        pass
