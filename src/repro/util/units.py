"""Byte unit helpers used across reports."""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


def format_bytes(n: float) -> str:
    """Human-readable byte count, e.g. ``format_bytes(30 * GIB) == '30.0 GiB'``."""
    n = float(n)
    sign = "-" if n < 0 else ""
    n = abs(n)
    for unit, factor in (("GiB", GIB), ("MiB", MIB), ("KiB", KIB)):
        if n >= factor:
            return f"{sign}{n / factor:.1f} {unit}"
    return f"{sign}{n:.0f} B"

