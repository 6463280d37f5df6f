"""Seeded randomness helpers.

Every generator in the workload package takes an explicit seed so that a
whole "week at a large European ISP" is reproducible bit-for-bit. Workers
that need independent streams derive child RNGs from a parent seed and a
string label, so adding a new consumer never perturbs existing ones.

:func:`derive_rng` is the repo's **one** seed-derivation scheme: the
golden-corpus regeneration (``python -m repro.replay.scenarios``), the
fault injector, and the workload generator all derive every stream
through it. Its stability contract:

* **Cross-version / cross-process stable.** The derivation is
  SHA-256 over ``f"{seed}:{label}"`` — no ``hash()`` anywhere — so it is
  independent of ``PYTHONHASHSEED``, of dict/set iteration order, and of
  the interpreter build. ``random.Random`` itself is the Mersenne
  Twister whose sequence CPython guarantees stable across versions for
  a given integer seed. Anything seeded through here therefore
  regenerates byte-identically on any Python ≥ 3.8 (pinned by
  ``tests/test_workload_generator.py``'s cross-hash-seed subprocess
  tests).
* **Insertion-order independent.** Consumers must not route draws
  through ``hash()``-ordered containers; iterate sorted keys or
  explicit sequences when draw order matters.
* **Label-isolated.** Adding a stream under a new label never perturbs
  existing labels' streams, so generators can grow new lanes without
  invalidating golden files.
"""

from __future__ import annotations

import hashlib
import random


def derive_rng(seed: int, label: str) -> random.Random:
    """Derive an independent RNG from ``seed`` and a stable string label.

    Uses SHA-256 so the derived streams are uncorrelated regardless of how
    similar the labels are (``"dns-0"`` vs ``"dns-1"``).
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))

